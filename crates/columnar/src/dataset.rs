use std::sync::Arc;

use swope_sampling::PageLayout;

use crate::snapshot::Residency;
use crate::{AttrIndex, Code, Column, ColumnarError, PackedColumn, Schema};

/// The paper's support cap (§6.1): the `max_support` the CLI, the server
/// and the figure harness pass to [`Dataset::cap_support`] by default.
pub const DEFAULT_MAX_SUPPORT: u32 = 1000;

/// An immutable columnar dataset: `N` rows by `h` categorical attributes.
///
/// This is the input type `D` of every SWOPE query. Columns are stored
/// independently so a query over a candidate subset only touches those
/// columns — matching the paper's columnar layout assumption (§6.1).
///
/// Its columns are all on the heap or all paged, and all in one
/// [`PageLayout`]. The count kernels index them by *position*, the slot
/// the layout stores a row at, and a position means the same on both
/// residencies: a heap column and a v3 or v4 snapshot's pages keep one
/// byte order. The positions a `swope_sampling::PagePrefix` draws are
/// read as they are, and every other accessor speaks rows. The dataset
/// holds its layout, so no table is rebuilt while it lives.
///
/// A dataset of its own is laid out as its row count is. A *slice* —
/// one ascending run of another dataset's rows ([`Dataset::take_rows`]) —
/// keeps its table's layout and records its frame
/// ([`Dataset::frame`]). Its queries draw their samples where it stores
/// its rows, as a range of its table draws them: each page of its grid
/// is its table's page restricted to its rows, which is uniform on them.
/// So a slice answers as a coordinator over peers that tile it does, and
/// a cluster peer serving it counts the windows a coordinator draws in
/// place.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
    layout: Arc<PageLayout>,
}

impl Dataset {
    /// Assembles a dataset, validating that columns agree with the schema.
    ///
    /// Checks: one column per field, equal row counts, and codes within each
    /// field's support.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self, ColumnarError> {
        if schema.len() != columns.len() {
            return Err(ColumnarError::RaggedColumns);
        }
        if columns.iter().any(Column::is_paged) && !columns.iter().all(Column::is_paged) {
            return Err(ColumnarError::MixedResidency);
        }
        let layout = columns.first().map_or_else(|| PageLayout::of(0), |c| c.layout().clone());
        if columns.iter().any(|c| *c.layout() != layout) {
            return Err(ColumnarError::MixedLayout);
        }
        let num_rows = columns.first().map_or(0, Column::len);
        for (i, col) in columns.iter().enumerate() {
            if col.len() != num_rows {
                return Err(ColumnarError::RaggedColumns);
            }
            let support = schema.field(i).expect("length checked").support();
            if col.support() > support {
                return Err(ColumnarError::CodeOutOfRange {
                    attr: i,
                    code: col.support() - 1,
                    support,
                });
            }
        }
        Ok(Self::assemble(schema, columns, layout))
    }

    /// The dataset of `columns`, all in `layout`.
    fn assemble(schema: Schema, columns: Vec<Column>, layout: Arc<PageLayout>) -> Self {
        Self { schema, columns, num_rows: layout.num_rows(), layout }
    }

    /// Loads a dataset from `path`, dispatching on the extension: `.swop`
    /// is opened as a snapshot ([`crate::snapshot::open`]) with its
    /// columns at `residency` and its partition sketch when the file
    /// carries one; anything else is read as CSV with default options,
    /// which has no paged form and no sketch. This is the one loader
    /// shared by the CLI and the server's dataset registry, so both agree
    /// on what a path means.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        residency: Residency<'_>,
    ) -> Result<(Dataset, Option<swope_sketch::DatasetSketch>), ColumnarError> {
        let path = path.as_ref();
        if path.extension().is_some_and(|e| e == "swop") {
            crate::snapshot::open(path, residency)
        } else {
            crate::csv::read_csv_file(path, &crate::csv::CsvOptions::default()).map(|ds| (ds, None))
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records `N`.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of attributes `h`.
    pub fn num_attrs(&self) -> usize {
        self.columns.len()
    }

    /// The column for attribute `attr`. Panics if out of range; use
    /// [`Dataset::try_column`] for a fallible variant.
    pub fn column(&self, attr: AttrIndex) -> &Column {
        &self.columns[attr]
    }

    /// The column for attribute `attr`, or an error if out of range.
    pub fn try_column(&self, attr: AttrIndex) -> Result<&Column, ColumnarError> {
        self.columns
            .get(attr)
            .ok_or(ColumnarError::AttrOutOfRange { index: attr, num_attrs: self.columns.len() })
    }

    /// The page layout the dataset stores its rows in: the positions its
    /// columns are indexed by, and the ones its queries draw.
    pub fn layout(&self) -> &Arc<PageLayout> {
        &self.layout
    }

    /// The dataset's frame: the rows of the table it was cut from and the
    /// first of them it holds. `(N, 0)` for a dataset of its own.
    pub fn frame(&self) -> (usize, usize) {
        self.layout.frame()
    }

    /// The support size `u_alpha` of attribute `attr`.
    pub fn support(&self, attr: AttrIndex) -> u32 {
        self.columns[attr].support()
    }

    /// Resolves an attribute name to its index.
    pub fn attr_index(&self, name: &str) -> Result<AttrIndex, ColumnarError> {
        self.schema.index_of(name).ok_or_else(|| ColumnarError::UnknownAttr(name.to_owned()))
    }

    /// Drops attributes whose support size exceeds `cap`, returning the
    /// surviving dataset and the kept original indices. The surviving
    /// columns are moved, not copied: a loader caps every dataset it
    /// reads, and must not hold it twice to do so.
    ///
    /// The paper removes columns with support > [`DEFAULT_MAX_SUPPORT`]
    /// before querying, "since they are usually not the preferred
    /// attributes for downstream data mining tasks" (§6.1).
    pub fn cap_support(self, cap: u32) -> (Dataset, Vec<AttrIndex>) {
        let (kept, columns): (Vec<AttrIndex>, Vec<Column>) =
            self.columns.into_iter().enumerate().filter(|(_, c)| c.support() <= cap).unzip();
        let schema = self.schema.project(&kept);
        let ds = Dataset::new(schema, columns).expect("a subset of a valid dataset's columns");
        (ds, kept)
    }

    /// Vertically concatenates datasets with matching schemas (e.g.
    /// shards of one logical table loaded separately).
    ///
    /// Attributes are matched by position and must agree in *name*. Codes
    /// are reconciled per attribute:
    ///
    /// * if both fields carry dictionaries, the other shard's codes are
    ///   re-encoded through a merged dictionary (value-level identity);
    /// * otherwise codes are taken as-is and the support becomes the max
    ///   of the two (code-level identity — correct for shards produced by
    ///   the same generator/encoder).
    pub fn concat(&self, other: &Dataset) -> Result<Dataset, ColumnarError> {
        if self.num_attrs() != other.num_attrs() {
            return Err(ColumnarError::RaggedColumns);
        }
        let mut fields = Vec::with_capacity(self.num_attrs());
        let mut columns = Vec::with_capacity(self.num_attrs());
        for attr in 0..self.num_attrs() {
            let fa = self.schema.field(attr).expect("in range");
            let fb = other.schema.field(attr).expect("in range");
            if fa.name() != fb.name() {
                return Err(ColumnarError::UnknownAttr(format!(
                    "attribute {attr} name mismatch: {:?} vs {:?}",
                    fa.name(),
                    fb.name()
                )));
            }
            let ca = self.column(attr);
            let cb = other.column(attr);
            match (fa.dictionary(), fb.dictionary()) {
                (Some(da), Some(db)) => {
                    let mut merged = da.clone();
                    let remap: Vec<Code> = (0..db.len() as Code)
                        .map(|code| {
                            let value = db.decode(code).expect("dense dictionary");
                            merged.intern(value)
                        })
                        .collect();
                    let mut codes = ca.to_codes();
                    codes.reserve(cb.len());
                    codes.extend(cb.to_codes().iter().map(|&c| remap[c as usize]));
                    let support = merged.len() as u32;
                    fields.push(crate::Field::with_dictionary(fa.name(), merged));
                    columns.push(Column::new_unchecked(codes, support));
                }
                _ => {
                    let support = ca.support().max(cb.support());
                    let mut codes = ca.to_codes();
                    codes.reserve(cb.len());
                    codes.extend(cb.to_codes());
                    fields.push(crate::Field::new(fa.name(), support));
                    columns.push(Column::new_unchecked(codes, support));
                }
            }
        }
        Dataset::new(Schema::new(fields), columns)
    }

    /// Returns a dataset containing only the rows at `rows` (in that order).
    ///
    /// Supports are preserved (not re-densified) so bound computations using
    /// `u_alpha` stay comparable with the parent dataset.
    ///
    /// One ascending run of rows `a..b` is a *slice*: it keeps this
    /// dataset's table's layout ([`PageLayout::slice`]), and its frame is
    /// this one's moved on by `a`. That is how `swope split` cuts halves,
    /// so that a peer counts a coordinator's windows over the table in
    /// place. Any other selection is laid out as a dataset of its own.
    pub fn take_rows(&self, rows: &[usize]) -> Dataset {
        let ascending = rows.windows(2).all(|w| w[1] == w[0] + 1);
        let layout = match rows.first() {
            Some(&first) if ascending => {
                let (union_rows, base) = self.frame();
                PageLayout::slice(union_rows, base + first, rows.len())
            }
            _ => PageLayout::of(rows.len()),
        };
        let columns: Vec<Column> = self
            .columns
            .iter()
            .map(|c| {
                let codes = rows.iter().map(|&r| c.code(r)).collect();
                Column::from_packed_in(
                    PackedColumn::new_unchecked(codes, c.support()),
                    layout.clone(),
                )
            })
            .collect();
        Self::assemble(self.schema.clone(), columns, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Field;

    fn small() -> Dataset {
        let schema = Schema::new(vec![Field::new("x", 3), Field::new("y", 2)]);
        let cols = vec![
            Column::new(vec![0, 1, 2, 0], 3).unwrap(),
            Column::new(vec![1, 0, 1, 1], 2).unwrap(),
        ];
        Dataset::new(schema, cols).unwrap()
    }

    #[test]
    fn construction_validates_shape() {
        let schema = Schema::new(vec![Field::new("x", 3)]);
        let cols = vec![Column::new(vec![0, 1], 3).unwrap(), Column::new(vec![0], 2).unwrap()];
        assert!(matches!(Dataset::new(schema, cols), Err(ColumnarError::RaggedColumns)));
    }

    #[test]
    fn construction_rejects_ragged_rows() {
        let schema = Schema::new(vec![Field::new("x", 3), Field::new("y", 2)]);
        let cols = vec![Column::new(vec![0, 1, 2], 3).unwrap(), Column::new(vec![0], 2).unwrap()];
        assert!(Dataset::new(schema, cols).is_err());
    }

    #[test]
    fn accessors() {
        let ds = small();
        assert_eq!(ds.num_rows(), 4);
        assert_eq!(ds.num_attrs(), 2);
        assert_eq!(ds.support(0), 3);
        assert_eq!(ds.attr_index("y").unwrap(), 1);
        assert!(ds.attr_index("z").is_err());
        assert!(ds.try_column(5).is_err());
    }

    #[test]
    fn cap_support_drops_wide_columns() {
        let (ds, kept) = small().cap_support(2);
        assert_eq!(kept, vec![1]);
        assert_eq!(ds.num_attrs(), 1);
        let (all, kept_all) = small().cap_support(1000);
        assert_eq!(kept_all, vec![0, 1]);
        assert_eq!(all.num_attrs(), 2);
    }

    #[test]
    fn concat_without_dictionaries_appends_rows() {
        let a = small();
        let b = small();
        let joined = a.concat(&b).unwrap();
        assert_eq!(joined.num_rows(), 8);
        assert_eq!(joined.num_attrs(), 2);
        assert_eq!(joined.column(0).to_codes()[..4], a.column(0).to_codes());
        assert_eq!(joined.column(0).to_codes()[4..], b.column(0).to_codes());
    }

    #[test]
    fn concat_with_dictionaries_remaps_codes() {
        use crate::DatasetBuilder;
        let mut b1 = DatasetBuilder::new(vec!["c".into()]);
        b1.push_row(&["red"]).unwrap();
        b1.push_row(&["blue"]).unwrap();
        let mut b2 = DatasetBuilder::new(vec!["c".into()]);
        b2.push_row(&["blue"]).unwrap(); // code 0 in shard 2, 1 in merged
        b2.push_row(&["green"]).unwrap(); // new value
        let joined = b1.finish().concat(&b2.finish()).unwrap();
        assert_eq!(joined.num_rows(), 4);
        let dict = joined.schema().field(0).unwrap().dictionary().unwrap();
        assert_eq!(dict.len(), 3);
        // Row 2 ("blue") must share row 1's code; row 3 is the new value.
        let codes = joined.column(0).to_codes();
        assert_eq!(codes[2], codes[1]);
        assert_eq!(dict.decode(codes[3]), Some("green"));
    }

    #[test]
    fn concat_rejects_mismatched_shapes() {
        let a = small();
        let narrower =
            Dataset::new(Schema::new(vec![Field::new("x", 3)]), vec![a.column(0).clone()]).unwrap();
        assert!(a.concat(&narrower).is_err());
        // Name mismatch.
        let schema = Schema::new(vec![Field::new("x", 3), Field::new("z", 2)]);
        let renamed = Dataset::new(
            schema,
            vec![Column::new(vec![0], 3).unwrap(), Column::new(vec![0], 2).unwrap()],
        )
        .unwrap();
        assert!(a.concat(&renamed).is_err());
    }

    /// One ascending run of rows is a slice in its table's frame, also
    /// cut from a slice; any other selection is a dataset of its own.
    #[test]
    fn take_rows_of_a_run_is_a_slice_of_the_table() {
        let ds = small();
        let half = ds.take_rows(&[1, 2, 3]);
        assert_eq!(half.frame(), (4, 1));
        assert_eq!(half.take_rows(&[1, 2]).frame(), (4, 2));
        assert_eq!(half.column(0).to_codes(), vec![1, 2, 0]);
        assert_eq!(ds.take_rows(&[0, 1, 2, 3]).frame(), (4, 0));
        assert_eq!(ds.take_rows(&[0, 1, 2, 3]), ds);
        assert_eq!(ds.take_rows(&[3, 0]).frame(), (2, 0));
        assert_eq!(ds.take_rows(&[]).frame(), (0, 0));
        // Columns of different frames make no dataset.
        let mixed = vec![half.column(0).clone(), small().take_rows(&[1, 3, 2]).column(1).clone()];
        let schema = Schema::new(vec![Field::new("x", 3), Field::new("y", 2)]);
        assert!(matches!(Dataset::new(schema, mixed), Err(ColumnarError::MixedLayout)));
    }

    #[test]
    fn take_rows_reorders_and_preserves_support() {
        let ds = small().take_rows(&[3, 0]);
        assert_eq!(ds.num_rows(), 2);
        assert_eq!(ds.column(0).to_codes(), vec![0, 0]);
        assert_eq!(ds.column(1).to_codes(), vec![1, 1]);
        assert_eq!(ds.support(0), 3); // not re-densified
    }
}
