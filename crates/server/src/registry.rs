//! Dataset registry: named, immutable, shareable datasets.
//!
//! It also holds the load policy — cap each column's support, keep the
//! sketch a file carries unless the cap dropped a column, build one
//! otherwise — for every client: `swope serve` registers its files here,
//! and the CLI's query commands load theirs through the same
//! [`DatasetRegistry::load_path`] (and `inspect` and `stats` through
//! [`open_capped`]), so a file answers alike on both sides.
//!
//! The whole point of the server is amortization — load a dataset once,
//! answer many cheap adaptive queries against it. The registry holds
//! each dataset behind an `Arc` so worker threads answer queries against
//! a consistent snapshot even while an operator replaces the dataset
//! under the same name; replacement bumps a monotonically increasing
//! *generation* that the result cache folds into its keys, so stale
//! cached answers can never be served for a reloaded dataset.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use swope_columnar::{snapshot, stats, Dataset, DatasetSketch, PageCache, Residency, Width};

/// One registered dataset plus its identity metadata.
pub struct DatasetEntry {
    /// Registry name (the `dataset` query parameter).
    pub name: String,
    /// Monotonic insert counter; a replaced dataset gets a new generation.
    pub generation: u64,
    /// The dataset itself (already support-capped at load).
    pub dataset: Arc<Dataset>,
    /// Per-page partition sketch for scoped queries: read from the
    /// snapshot when the file carries one (and no columns were capped
    /// away), otherwise built at insert time so every registered dataset
    /// can serve scoped queries.
    pub sketch: Arc<DatasetSketch>,
    /// Columns dropped at load because their support exceeded the cap.
    pub dropped_columns: usize,
}

/// A concurrent name → dataset map.
pub struct DatasetRegistry {
    inner: RwLock<HashMap<String, Arc<DatasetEntry>>>,
    next_generation: AtomicU64,
    max_support: u32,
    /// The page cache `.swop` files open through ([`Residency::Paged`]);
    /// `None` loads them to the heap.
    pager: Option<Arc<PageCache>>,
}

impl DatasetRegistry {
    /// An empty registry that loads files to the heap. Datasets are
    /// capped to `max_support` at load.
    pub fn new(max_support: u32) -> Self {
        Self::with_pager(max_support, None)
    }

    /// [`DatasetRegistry::new`] for a server: with a `pager`, `.swop`
    /// files open out-of-core through it instead.
    pub(crate) fn with_pager(max_support: u32, pager: Option<Arc<PageCache>>) -> Self {
        Self {
            inner: RwLock::new(HashMap::new()),
            next_generation: AtomicU64::new(1),
            max_support,
            pager,
        }
    }

    /// Registers `dataset` under `name`, replacing any previous holder of
    /// the name. Returns the new entry.
    pub fn insert(&self, name: &str, dataset: Dataset) -> Arc<DatasetEntry> {
        self.register(name, cap(dataset, None, self.max_support))
    }

    /// Registers a capped dataset — the one place an entry comes into
    /// being — with the sketch its file carried, or else one built from
    /// it.
    fn register(&self, name: &str, (dataset, sketch, dropped): Capped) -> Arc<DatasetEntry> {
        // Built through the snapshot module's paged-aware path: a capped
        // out-of-core dataset sketches one faulted page at a time instead
        // of materializing whole columns.
        let sketch = sketch.unwrap_or_else(|| swope_columnar::snapshot::build_sketch(&dataset));
        let entry = Arc::new(DatasetEntry {
            name: name.to_owned(),
            generation: self.next_generation.fetch_add(1, Ordering::Relaxed),
            dataset: Arc::new(dataset),
            sketch: Arc::new(sketch),
            dropped_columns: dropped,
        });
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        map.insert(name.to_owned(), Arc::clone(&entry));
        entry
    }

    /// Loads the `.swop`/`.csv` file at `path` and registers it under its
    /// file stem (`data/cdc.swop` → `cdc`). Snapshot sketches are reused
    /// when present; otherwise one is built at load. A server's registry
    /// ([`Server::registry`](crate::Server::registry)) loads at the
    /// residency the server was configured with.
    pub fn load_path(&self, path: &str) -> Result<Arc<DatasetEntry>, String> {
        self.load(path, None)
    }

    /// [`DatasetRegistry::load_path`], with `.swop` snapshots opened
    /// *out-of-core* whatever the registry's own residency: columns stay
    /// in the mapped file and fault page-by-page through `cache` (CSV
    /// files still load eagerly).
    pub fn load_path_paged(
        &self,
        path: &str,
        cache: &Arc<PageCache>,
    ) -> Result<Arc<DatasetEntry>, String> {
        self.load_at(path, None, Residency::Paged(cache))
    }

    /// [`DatasetRegistry::load_path`] under `name` when one is given —
    /// the two spellings of `POST /datasets`.
    pub(crate) fn load(&self, path: &str, name: Option<&str>) -> Result<Arc<DatasetEntry>, String> {
        self.load_at(path, name, self.pager.as_ref().map_or(Residency::Heap, Residency::Paged))
    }

    /// Opens the file at `path` at `residency` and registers it under
    /// `name`, or under its file stem.
    fn load_at(
        &self,
        path: &str,
        name: Option<&str>,
        residency: Residency<'_>,
    ) -> Result<Arc<DatasetEntry>, String> {
        let stem =
            || Path::new(path).file_stem().and_then(|s| s.to_str()).filter(|s| !s.is_empty());
        let name = name
            .or_else(stem)
            .ok_or_else(|| format!("cannot derive a dataset name from {path:?}"))?;
        Ok(self.register(name, open_capped(path, residency, self.max_support)?))
    }

    /// The map, whether or not a thread panicked holding it: the one
    /// write section is a single `insert`, so the map is valid wherever
    /// a panic struck — and the server's event thread, which resolves
    /// every query's generation here, must outlive a worker's panic.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Arc<DatasetEntry>>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current entry registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.read().get(name).cloned()
    }

    /// All entries, sorted by name.
    pub fn list(&self) -> Vec<Arc<DatasetEntry>> {
        let map = self.read();
        let mut entries: Vec<_> = map.values().cloned().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregates the storage layer's footprint over all registered
    /// datasets, for the `swope_store_*` metric families.
    pub fn store_stats(&self) -> StoreStats {
        let mut agg = StoreStats::default();
        for entry in self.list() {
            let ds = &entry.dataset;
            agg.bytes_in_memory += stats::bytes_in_memory(ds) as u64;
            agg.bytes_unpacked += stats::bytes_unpacked(ds) as u64;
            for attr in 0..ds.num_attrs() {
                match ds.column(attr).width() {
                    Width::U8 => agg.columns_u8 += 1,
                    Width::U16 => agg.columns_u16 += 1,
                    Width::U32 => agg.columns_u32 += 1,
                }
            }
        }
        agg
    }

    /// Aggregates partition-sketch footprint over all registered
    /// datasets, for the `swope_sketch_*` metric families.
    pub fn sketch_stats(&self) -> SketchStats {
        let mut agg = SketchStats::default();
        for entry in self.list() {
            agg.bytes += entry.sketch.encoded_len() as u64;
            agg.pages += entry.sketch.num_pages() as u64;
        }
        agg
    }
}

/// A support-capped dataset, the sketch its file carried if that still
/// fits it, and the number of columns the cap dropped.
pub type Capped = (Dataset, Option<DatasetSketch>, usize);

/// Opens the `.swop`/`.csv` file at `path` at `residency` and caps it to
/// `max_support`: what every load does before registering. A v2 snapshot
/// opened paged was rewritten as v3 in memory to be read by position;
/// that is logged, with the command that makes the rewrite last.
pub fn open_capped(
    path: &str,
    residency: Residency<'_>,
    max_support: u32,
) -> Result<Capped, String> {
    let (dataset, sketch) =
        Dataset::open(path, residency).map_err(|e| format!("loading {path}: {e}"))?;
    let paged_swop = matches!(residency, Residency::Paged(_)) && path.ends_with(".swop");
    let format = paged_swop.then(|| snapshot::format(path).ok()).flatten();
    if let Some(older) = format.filter(|f| f.version < snapshot::VERSION) {
        eprintln!(
            "swope: {path} is a v{} snapshot, rewritten as v{} in memory to open paged; \
             `swope convert {path} {path}` rewrites the file",
            older.version,
            snapshot::VERSION
        );
    }
    Ok(cap(dataset, sketch, max_support))
}

/// Drops the columns whose support exceeds `max_support`, and with any
/// of them `sketch`, whose column indices would no longer match.
fn cap(dataset: Dataset, sketch: Option<DatasetSketch>, max_support: u32) -> Capped {
    let before = dataset.num_attrs();
    let (capped, kept) = dataset.cap_support(max_support);
    let dropped = before - kept.len();
    (capped, sketch.filter(|_| dropped == 0), dropped)
}

/// Registry-wide partition-sketch footprint
/// (see [`DatasetRegistry::sketch_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SketchStats {
    /// Bytes the registered sketches occupy when encoded.
    pub bytes: u64,
    /// Total sketch pages across registered datasets.
    pub pages: u64,
}

/// Registry-wide storage-layer footprint (see [`DatasetRegistry::store_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes of width-packed code storage resident in memory.
    pub bytes_in_memory: u64,
    /// Bytes the same codes would occupy unpacked at 4 bytes each.
    pub bytes_unpacked: u64,
    /// Registered columns packed at `u8`.
    pub columns_u8: u64,
    /// Registered columns packed at `u16`.
    pub columns_u16: u64,
    /// Registered columns packed at `u32`.
    pub columns_u32: u64,
}

impl StoreStats {
    /// Bytes saved by width packing versus all-`u32` storage.
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_unpacked.saturating_sub(self.bytes_in_memory)
    }
}

impl DatasetEntry {
    /// Whether any column is pager-backed (loaded out-of-core).
    pub fn is_paged(&self) -> bool {
        (0..self.dataset.num_attrs()).any(|a| self.dataset.column(a).is_paged())
    }

    /// Bytes of mapped pages the page cache currently counts resident
    /// across this dataset's columns; 0 for a heap-loaded dataset.
    pub fn resident_page_bytes(&self) -> u64 {
        (0..self.dataset.num_attrs())
            .filter_map(|a| self.dataset.column(a).paged())
            .map(|p| p.resident_bytes())
            .sum()
    }

    /// Serializes this entry (shape + per-column stats) as a JSON object.
    pub fn describe_json(&self) -> String {
        use std::fmt::Write as _;
        use swope_obs::json::{escape_into, f64_into};

        let summary = stats::summarize(&self.dataset);
        let mut out = String::from("{");
        out.push_str("\"name\":");
        escape_into(&mut out, &self.name);
        let _ = write!(
            out,
            ",\"generation\":{},\"rows\":{},\"columns\":{},\"max_support\":{},\
             \"dropped_columns\":{}",
            self.generation,
            summary.rows,
            summary.columns,
            summary.max_support,
            self.dropped_columns
        );
        let _ = write!(
            out,
            ",\"sketch\":{{\"pages\":{},\"bytes\":{}",
            self.sketch.num_pages(),
            self.sketch.encoded_len()
        );
        // In-memory footprint: heap columns report their full packed
        // size, paged columns only their currently-resident page bytes
        // (also broken out under `resident_pages`), and the sketch's
        // encoded size is always counted — `total` is what this dataset
        // actually holds in memory right now.
        let column_bytes = stats::bytes_in_memory(&self.dataset) as u64;
        let sketch_bytes = self.sketch.encoded_len() as u64;
        let _ = write!(
            out,
            "}},\"paged\":{},\"bytes_in_memory\":{{\"columns\":{},\"sketch\":{},\
             \"resident_pages\":{},\"total\":{}}}",
            self.is_paged(),
            column_bytes,
            sketch_bytes,
            self.resident_page_bytes(),
            column_bytes + sketch_bytes
        );
        out.push_str(",\"column_stats\":[");
        for (i, s) in stats::dataset_stats(&self.dataset).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"attr\":");
            let _ = write!(out, "{}", s.attr);
            out.push_str(",\"name\":");
            escape_into(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"support\":{},\"observed_distinct\":{},\"code_width\":{},\
                 \"bytes_in_memory\":{},\"mode_fraction\":",
                s.support, s.observed_distinct, s.code_width, s.bytes_in_memory
            );
            f64_into(&mut out, s.mode_fraction);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swope_columnar::DatasetBuilder;
    use swope_obs::json::Json;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(vec!["color".into(), "size".into()]);
        for row in [["red", "s"], ["blue", "m"], ["red", "l"]] {
            b.push_row(&row).unwrap();
        }
        b.finish()
    }

    #[test]
    fn insert_get_and_generations() {
        let reg = DatasetRegistry::new(1000);
        assert!(reg.is_empty());
        let first = reg.insert("t", sample());
        let second = reg.insert("t", sample());
        assert!(second.generation > first.generation);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get("t").unwrap().generation, second.generation);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn support_cap_applies_at_insert() {
        let reg = DatasetRegistry::new(2);
        let entry = reg.insert("t", sample()); // "color" has support 3
        assert_eq!(entry.dataset.num_attrs(), 1);
        assert_eq!(entry.dropped_columns, 1);
    }

    #[test]
    fn load_path_uses_file_stem() {
        let dir = std::env::temp_dir().join("swope-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("colors.swop");
        swope_columnar::snapshot::write_file(&sample(), &path).unwrap();
        let reg = DatasetRegistry::new(1000);
        let entry = reg.load_path(path.to_str().unwrap()).unwrap();
        assert_eq!(entry.name, "colors");
        assert_eq!(entry.dataset.num_rows(), 3);
        assert!(reg.load_path("/no/such/file.swop").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_load_hands_back_the_sketch_the_file_carries() {
        use swope_columnar::{snapshot, Column, Field, Schema};
        // Two datasets of one shape; the file holds the first's columns
        // under the second's sketch (dense layout, so both encode to the
        // same length and the splice keeps the section table valid) — a
        // load that rebuilt the sketch from the columns would show.
        let dataset = |shift: u32| {
            let codes = |m: u32| (shift..shift + 500).map(|i| i * 7 % m).collect();
            let fields = vec![Field::new("a", 200), Field::new("b", 31)];
            let columns = vec![Column::new(codes(200), 200), Column::new(codes(31), 31)];
            Dataset::new(Schema::new(fields), columns.into_iter().map(Result::unwrap).collect())
                .unwrap()
        };
        let foreign = snapshot::build_sketch(&dataset(3));
        let mut bytes = snapshot::encode(&dataset(0));
        let payload = foreign.encode();
        assert_eq!(payload.len(), snapshot::build_sketch(&dataset(0)).encoded_len());
        let at = bytes.len() - payload.len();
        bytes[at..].copy_from_slice(&payload);
        let dir = std::env::temp_dir().join("swope-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("spliced-{}.swop", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let path_str = path.to_str().unwrap();

        let cache = Arc::new(PageCache::unbounded());
        let heap = DatasetRegistry::new(1000);
        let paged = DatasetRegistry::with_pager(1000, Some(Arc::clone(&cache)));
        for (reg, is_paged) in [(&heap, false), (&paged, true)] {
            // The two spellings of `POST /datasets`, then the preload's.
            for name in [Some("named"), None] {
                let entry = reg.load(path_str, name).unwrap();
                assert_eq!(entry.is_paged(), is_paged);
                assert!(*entry.sketch == foreign, "name {name:?}, paged {is_paged}");
            }
            assert!(*reg.load_path(path_str).unwrap().sketch == foreign);
        }
        assert!(*heap.load_path_paged(path_str, &cache).unwrap().sketch == foreign);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn describe_json_parses_and_lists_columns() {
        let reg = DatasetRegistry::new(1000);
        let entry = reg.insert("t", sample());
        let v = Json::parse(&entry.describe_json()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("t"));
        assert_eq!(v.get("rows").unwrap().as_u64(), Some(3));
        match v.get("column_stats").unwrap() {
            Json::Arr(cols) => {
                assert_eq!(cols.len(), 2);
                assert_eq!(cols[0].get("name").unwrap().as_str(), Some("color"));
                // Support 3 packs at u8: one byte per row.
                assert_eq!(cols[0].get("code_width").unwrap().as_u64(), Some(8));
                assert_eq!(cols[0].get("bytes_in_memory").unwrap().as_u64(), Some(3));
            }
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn list_is_sorted_by_name() {
        let reg = DatasetRegistry::new(1000);
        reg.insert("zeta", sample());
        reg.insert("alpha", sample());
        let names: Vec<_> = reg.list().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
