//! The `SWOP` binary on-disk format for datasets.
//!
//! Version 3 (the writer's format for a dataset of its own) is paged and
//! checksummed so a reader can reject bit rot before trusting anything,
//! and sectioned so the layout is validated against the file's real size
//! before any payload byte is touched. Version 4 is the same format for a
//! slice of a larger table's rows. All integers little-endian:
//!
//! ```text
//! header (12 bytes):
//!   magic         b"SWOP"      4 bytes
//!   version       u16          3, or 4 for a slice (2 still reads, see below)
//!   flags         u16          reserved, 0
//!   section_count u32          1 (schema) + h (one per column) [+ 1 sketch]
//! section table (24 bytes per entry, see `swope_store::section`):
//!   kind u32, attr u32, offset u64, len u64
//! schema section payload:
//!   h u32, N u64
//!   layout_seed u64            v3, v4: the seed the pages are ordered by
//!   union_rows u64, base u64   v4 only: the slice's frame
//!   field*h:
//!     name_len u32, name bytes (UTF-8)
//!     support  u32
//!     has_dict u8
//!     if has_dict: count u32, then count * (len u32, bytes)
//!   crc u32                    CRC32 of the schema payload above
//! column section payload (one per attribute, in attribute order):
//!   width u8                   bytes per code: 1, 2, or 4
//!   paged codes                see `swope_store::page` (per-page CRC32)
//! sketch section payload (optional, at most one, last):
//!   per-page code histograms   see `swope_sketch` (own trailing CRC32)
//! ```
//!
//! A v3 page holds its codes in slot order: the order the
//! `swope_sampling::PageLayout` of `N`, shuffled from `layout_seed`, puts
//! the page's rows in — the bytes a heap column keeps. So a heap load is a
//! plain decode, a paged column is read in place at the positions a
//! sample draws, and the writer emits a heap column's bytes as they are.
//! The seed sits beside `N` in the schema section, under its CRC, where
//! the fixed header and the table offsets every reader locates sections
//! by stay as they were. A v3 file recorded under another seed than this
//! build's `swope_sampling::LAYOUT_SEED` does not open: its positions
//! would name other rows.
//!
//! **Version 4** is a slice ([`Dataset::take_rows`] of one ascending run
//! of rows, which is how `swope split` cuts halves). It keeps its table's
//! layout, so its schema section records its *frame* after the seed: the
//! table's row count and the first table row it holds. Its pages are the
//! table's pages over its rows: the first holds `PAGE_ROWS − base mod
//! PAGE_ROWS` of them ([`swope_store::page::PageGrid`]), and its sketch
//! has the same pages. A dataset of its own still writes v3, byte for
//! byte, and a reader of v3 alone refuses a v4 file by its version.
//!
//! **Version 2** differs in two things: no `layout_seed`, and every page
//! in row order. It still reads. A heap load lays each column out as it
//! decodes it ([`Column::from_packed`]). A paged open decodes the file to
//! the heap once, re-encodes it as v3 and serves that from memory, so
//! there is one paged read path; `swope convert` rewrites the file as v3.
//!
//! The sketch section is *optional on read*: files written before it
//! existed decode exactly as they always did, and [`open`] reports `None`
//! for them. The writer always emits one so freshly written snapshots
//! support scoped queries without a load-time rebuild. A page's
//! histogram does not depend on the order of its codes, so a v2 sketch
//! describes the same pages of a v3 file.
//!
//! Column codes are stored at their in-memory packed width, so a `u8`
//! column costs one byte per row on disk too. Every section length is a
//! pure function of the schema and row count, which lets [`write()`]
//! stream: it emits the complete header and section table first, then
//! pages each column through one reusable page buffer — no
//! whole-snapshot staging in memory.
//!
//! Reading is one path too: [`open`] maps the file, validates the
//! header, section table, schema and sketch, and hands each column's
//! page stream to the [`Residency`] the caller chose — decoded to the
//! heap and released from the mapping column by column, or left in the
//! mapping and read page by page under a [`PageCache`].

use std::io::Write;
use std::iter;
use std::path::Path;
use std::sync::Arc;

use swope_pager::{HeapMapping, Mapping, PageCache, PagedColumn};
use swope_sampling::{PageLayout, LAYOUT_SEED};
use swope_sketch::{ColumnSketchBuilder, DatasetSketch};
use swope_store::crc32::crc32;
use swope_store::section::{
    validate_sections, Section, SECTION_COLUMN, SECTION_SCHEMA, SECTION_SKETCH,
};
use swope_store::Width;
use swope_store::{page, ByteReader, CodeBuf, CodeRepr, CodeVisitor, PackedColumn, ReadError};

use crate::{Column, ColumnarError, Dataset, Dictionary, Field, Schema};

const MAGIC: &[u8; 4] = b"SWOP";

/// The version [`write()`] emits for a dataset of its own.
pub const VERSION: u16 = 3;

/// The version [`write()`] emits for a slice: v3 and its frame.
pub const SLICE_VERSION: u16 = 4;

/// The row-order version, still read.
const V2: u16 = 2;

/// Bytes before the section table: magic + version + flags + count.
const HEADER_BYTES: usize = 12;

/// Serializes `dataset` into a byte buffer (v3, or v4 for a slice).
pub fn encode(dataset: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    write(dataset, &mut buf).expect("Vec writes are infallible");
    buf
}

/// Streams `dataset` in v3 snapshot format to `writer`, or v4 for a
/// slice.
///
/// The header and section table are emitted first (every section length
/// is computable up front), then columns are paged out through one
/// reusable buffer — peak extra memory is one page, not the snapshot.
pub fn write<W: Write>(dataset: &Dataset, writer: &mut W) -> Result<(), ColumnarError> {
    let h = dataset.num_attrs();
    let n = dataset.num_rows();
    let grid = dataset.layout().grid();
    let (union_rows, base) = dataset.frame();
    let version = if (union_rows, base) == (n, 0) { VERSION } else { SLICE_VERSION };

    let mut schema_payload = Vec::new();
    schema_payload.extend_from_slice(&(h as u32).to_le_bytes());
    schema_payload.extend_from_slice(&(n as u64).to_le_bytes());
    schema_payload.extend_from_slice(&LAYOUT_SEED.to_le_bytes());
    if version == SLICE_VERSION {
        schema_payload.extend_from_slice(&(union_rows as u64).to_le_bytes());
        schema_payload.extend_from_slice(&(base as u64).to_le_bytes());
    }
    for field in dataset.schema().fields() {
        put_str(&mut schema_payload, field.name());
        schema_payload.extend_from_slice(&field.support().to_le_bytes());
        match field.dictionary() {
            Some(dict) => {
                schema_payload.push(1);
                schema_payload.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for (_, v) in dict.iter() {
                    put_str(&mut schema_payload, v);
                }
            }
            None => schema_payload.push(0),
        }
    }
    let crc = crc32(&schema_payload);
    schema_payload.extend_from_slice(&crc.to_le_bytes());

    // The sketch is tiny next to the columns (histogram counts, not
    // rows), so encoding it up front keeps the section table computable
    // before any payload is streamed.
    let sketch_payload = build_sketch(dataset).encode();

    let section_count = 1 + h + 1;
    let mut offset =
        (HEADER_BYTES + section_count * swope_store::section::SECTION_ENTRY_BYTES) as u64;
    let mut table = Vec::with_capacity(section_count * swope_store::section::SECTION_ENTRY_BYTES);
    let schema_section =
        Section { kind: SECTION_SCHEMA, attr: 0, offset, len: schema_payload.len() as u64 };
    schema_section.write_into(&mut table);
    offset += schema_section.len;
    for attr in 0..h {
        let width = dataset.column(attr).width();
        let len = 1 + page::encoded_len(grid, width) as u64;
        Section { kind: SECTION_COLUMN, attr: attr as u32, offset, len }.write_into(&mut table);
        offset += len;
    }
    Section { kind: SECTION_SKETCH, attr: 0, offset, len: sketch_payload.len() as u64 }
        .write_into(&mut table);

    writer.write_all(MAGIC)?;
    writer.write_all(&version.to_le_bytes())?;
    writer.write_all(&0u16.to_le_bytes())?;
    writer.write_all(&(section_count as u32).to_le_bytes())?;
    writer.write_all(&table)?;
    writer.write_all(&schema_payload)?;
    let mut buf = CodeBuf::new();
    for attr in 0..h {
        let column = dataset.column(attr);
        writer.write_all(&[column.width().tag()])?;
        // Both residencies hold their codes in layout order: they go out
        // as they are read, a paged column's page by page.
        page::write_pages(grid, column.width(), writer, |span, payload| {
            let run = iter::once(span.start as u32..span.end as u32);
            column.read(run, &mut buf, &mut LeBytes(payload))
        })?;
    }
    writer.write_all(&sketch_payload)?;
    Ok(())
}

/// A read into little-endian bytes, as a page stores its codes.
struct LeBytes<'a>(&'a mut Vec<u8>);

impl CodeVisitor for LeBytes<'_> {
    fn codes<R: CodeRepr>(&mut self, codes: &[R]) {
        R::extend_le_bytes(codes, self.0);
    }
}

/// Builds the per-page partition sketch for `dataset` (exact per-page
/// code histograms; see `swope_sketch`), every page read into a
/// [`ColumnSketchBuilder`] in place, so a paged build stays within the
/// pager's byte budget. Panics on a corrupt page, as every read does.
pub fn build_sketch(dataset: &Dataset) -> DatasetSketch {
    let grid = dataset.layout().grid();
    let mut buf = CodeBuf::new();
    let columns = (0..dataset.num_attrs())
        .map(|attr| {
            let column = dataset.column(attr);
            let mut builder = ColumnSketchBuilder::new(column.support());
            for span in (0..grid.count()).map(|page| grid.span(page)) {
                column.read(iter::once(span.start as u32..span.end as u32), &mut buf, &mut builder);
                builder.end_page();
            }
            builder.finish()
        })
        .collect();
    DatasetSketch::new(grid, columns)
}

/// Where [`open`] leaves a snapshot's column codes.
#[derive(Clone, Copy)]
pub enum Residency<'a> {
    /// Decoded to heap columns at their stored width, every page's CRC
    /// and the codes' range checked up front. Each column's bytes are
    /// released from the mapping as soon as it is decoded, so a load
    /// never holds more than one column both as file bytes and as codes.
    Heap,
    /// Left in the mapping as [`PagedColumn`]s that read their pages in
    /// place and account them through this cache on first touch. Page
    /// CRCs are verified lazily, at first touch, so opening costs
    /// section/schema validation plus one 8-byte header walk per page —
    /// no payload reads — and under a byte budget leaves none of the
    /// file resident.
    Paged(&'a Arc<PageCache>),
}

/// Deserializes a dataset from in-memory snapshot `bytes`.
pub fn decode(bytes: &[u8]) -> Result<Dataset, ColumnarError> {
    open_on(Arc::new(HeapMapping::from(bytes.to_vec())), Residency::Heap)
        .map(|(dataset, _)| dataset)
}

/// Opens the snapshot at `path` — mapped, or buffered when mmap is
/// unavailable (see `swope_pager::open_mapping`) — with its columns at
/// `residency`, plus the partition sketch when the file carries one.
/// Pre-sketch snapshots yield `None`; a *present but* truncated or
/// corrupt sketch section is an error (a reader must not silently serve
/// scoped queries from bad counts).
///
/// A heap load reads through the mapping for as long as it takes, so —
/// like a paged dataset for its lifetime — it relies on the file being
/// replaced by rename ([`write_file`]), never truncated in place.
pub fn open(
    path: impl AsRef<Path>,
    residency: Residency<'_>,
) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
    open_on(swope_pager::open_mapping(path.as_ref())?, residency)
}

/// [`open`] over a byte source the caller opened: bytes already in
/// memory, or the read fallback where [`open`] would have mapped.
pub fn open_on(
    mapping: Arc<dyn Mapping>,
    residency: Residency<'_>,
) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
    let parsed = parse(mapping.bytes())?;
    if parsed.format.version == V2 && matches!(residency, Residency::Paged(_)) {
        // Row-order pages cannot be read by position: decode them once,
        // and serve the v3 encoding of the result from memory.
        let columns = load_columns(&mapping, &parsed, Residency::Heap)?;
        let upgraded = encode(&Dataset::new(Schema::new(parsed.fields.clone()), columns)?);
        let (dataset, _) = open_on(Arc::new(HeapMapping::from(upgraded)), residency)?;
        return Ok((dataset, parsed.sketch));
    }
    let columns = load_columns(&mapping, &parsed, residency)?;
    if matches!(residency, Residency::Paged(cache) if cache.budget_bytes().is_some()) {
        // Parsing read the schema and sketch sections through the
        // mapping; both now live decoded on the heap. Nothing of the
        // file is counted resident yet, so nothing of it should be.
        mapping.release(0..mapping.bytes().len());
    }
    Dataset::new(Schema::new(parsed.fields), columns).map(|dataset| (dataset, parsed.sketch))
}

/// Every column of a parsed snapshot at `residency`. A paged column
/// reads its pages as they are stored, so it needs v3 pages.
fn load_columns(
    mapping: &Arc<dyn Mapping>,
    parsed: &Parsed,
    residency: Residency<'_>,
) -> Result<Vec<Column>, ColumnarError> {
    let bytes = mapping.bytes();
    let (union_rows, base) = parsed.format.frame.unwrap_or((parsed.n, 0));
    let layout = PageLayout::slice(union_rows, base, parsed.n);
    let grid = layout.grid();
    let mut columns = Vec::with_capacity(parsed.fields.len());
    for (attr, ((width, range), field)) in parsed.columns.iter().zip(&parsed.fields).enumerate() {
        let column = match residency {
            Residency::Heap => {
                mapping.will_need(range.clone());
                let decoded = page::decode_pages(&bytes[range.clone()], grid, *width)
                    .and_then(|codes| PackedColumn::from_packed(codes, field.support()));
                mapping.release(range.clone());
                decoded.map(|packed| match parsed.format.version {
                    V2 => Column::from_packed(packed),
                    _ => Column::from_layout_order(packed, layout.clone()),
                })
            }
            Residency::Paged(cache) => PagedColumn::open(
                mapping.clone(),
                cache.clone(),
                range.clone(),
                grid,
                field.support(),
                *width,
            )
            .map(|paged| Column::from_paged(paged, layout.clone())),
        };
        columns.push(column.map_err(|e| ColumnarError::Snapshot(format!("column {attr}: {e}")))?);
    }
    Ok(columns)
}

/// What a snapshot says about its own encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The format version the file was written in: 2, 3, or 4 for a
    /// slice.
    pub version: u16,
    /// The seed of the layout its pages are ordered by; `None` for v2,
    /// whose pages are in row order.
    pub layout_seed: Option<u64>,
    /// A slice's frame, `(union_rows, base)`: the rows of the table it
    /// was cut from and the first of them it holds. `None` for a dataset
    /// of its own.
    pub frame: Option<(usize, usize)>,
}

/// The [`Format`] of the snapshot at `path`, read from its header and
/// schema section alone: no column or sketch byte is touched. Errors as
/// [`open`] would on those parts.
pub fn format(path: impl AsRef<Path>) -> Result<Format, ColumnarError> {
    parse_schema(swope_pager::open_mapping(path.as_ref())?.bytes()).map(|schema| schema.format)
}

/// Everything a snapshot declares short of column payload decoding: the
/// format, the schema (CRC-checked), each column's stored width and
/// payload byte range, and the decoded sketch.
struct Parsed {
    format: Format,
    fields: Vec<Field>,
    n: usize,
    /// Per attribute: stored width and the paged-payload byte range in
    /// the snapshot (past the width tag).
    columns: Vec<(Width, std::ops::Range<usize>)>,
    sketch: Option<DatasetSketch>,
}

/// The header, section table and schema of a snapshot: what [`parse`]
/// reads before any column or sketch section.
struct SchemaPart {
    format: Format,
    fields: Vec<Field>,
    n: usize,
    /// The section table past the schema's entry.
    sections: Vec<Section>,
}

/// Parses and validates the header, section table and schema section of
/// the snapshot `bytes`.
fn parse_schema(bytes: &[u8]) -> Result<SchemaPart, ColumnarError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(ColumnarError::Snapshot("bad magic".into()));
    }
    let version = r.u16()?;
    if !(V2..=SLICE_VERSION).contains(&version) {
        return Err(ColumnarError::Snapshot(format!(
            "unsupported version {version} (reads {V2} to {SLICE_VERSION})"
        )));
    }
    let _flags = r.u16()?;
    // The table must fit the bytes present before a single entry (or a
    // sections Vec) is allocated: a corrupt count fails here, cheaply.
    let entry = swope_store::section::SECTION_ENTRY_BYTES;
    let section_count = r.list_len(entry)?;
    let mut sections = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        sections.push(Section::parse(&mut r).map_err(store_err)?);
    }
    let body_start = (HEADER_BYTES + section_count * entry) as u64;
    validate_sections(&sections, body_start, bytes.len() as u64).map_err(store_err)?;
    if !sections.first().is_some_and(|s| s.kind == SECTION_SCHEMA) {
        return Err(ColumnarError::Snapshot("first section must be the schema".into()));
    }
    let schema_section = sections.remove(0);

    // Schema payload: body + trailing CRC32 of the body.
    let slice = section_slice(bytes, &schema_section);
    if slice.len() < 4 {
        return Err(truncated());
    }
    let (body, crc_bytes) = slice.split_at(slice.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split at len-4"));
    if crc32(body) != stored {
        return Err(ColumnarError::Snapshot("schema section checksum mismatch".into()));
    }
    let mut r = ByteReader::new(body);
    let h = r.u32()? as usize;
    let n = r.u64()? as usize;
    let layout_seed = match version {
        V2 => None,
        _ => Some(r.u64()?),
    };
    if let Some(seed) = layout_seed.filter(|&seed| seed != LAYOUT_SEED) {
        return Err(ColumnarError::Snapshot(format!(
            "pages laid out by seed {seed:#x}, but this build reads seed {LAYOUT_SEED:#x}"
        )));
    }
    let frame = match version {
        SLICE_VERSION => Some((r.u64()?, r.u64()?)),
        _ => None,
    };
    // A frame names a table whose positions a u32 indexes, holding the
    // slice: anything else is no layout a reader can build.
    let (union_rows, base) = frame.unwrap_or((n as u64, 0));
    if union_rows > u64::from(u32::MAX) || base.saturating_add(n as u64) > union_rows {
        return Err(ColumnarError::Snapshot(format!(
            "frame places {n} rows at row {base} of a table of {union_rows}"
        )));
    }
    let frame = frame.map(|(union_rows, base)| (union_rows as usize, base as usize));
    // Each field needs at least 9 bytes (name_len + support + has_dict);
    // check before the fields Vec is sized from h.
    if (h as u64).saturating_mul(9) > r.remaining() as u64 {
        return Err(truncated());
    }
    let mut fields = Vec::with_capacity(h);
    for _ in 0..h {
        fields.push(parse_field(&mut r)?);
    }
    if r.remaining() > 0 {
        return Err(ColumnarError::Snapshot(format!(
            "{} trailing bytes after schema fields",
            r.remaining()
        )));
    }
    Ok(SchemaPart { format: Format { version, layout_seed, frame }, fields, n, sections })
}

/// Parses and validates the structure of the snapshot `bytes`.
fn parse(bytes: &[u8]) -> Result<Parsed, ColumnarError> {
    let SchemaPart { format, fields, n, sections } = parse_schema(bytes)?;
    let h = fields.len();

    // The sketch section, when present, is exactly one entry after the
    // column sections. Anything else trailing the columns is a layout
    // error, not something to skip over.
    let (column_sections, sketch_section) = match sections.split_last() {
        Some((last, rest)) if last.kind == SECTION_SKETCH => (rest, Some(last)),
        _ => (&sections[..], None),
    };
    if column_sections.len() != h {
        return Err(ColumnarError::Snapshot(format!(
            "{} column sections for {h} attributes",
            column_sections.len()
        )));
    }
    let mut columns = Vec::with_capacity(h);
    for (attr, section) in column_sections.iter().enumerate() {
        if section.kind != SECTION_COLUMN || section.attr != attr as u32 {
            return Err(ColumnarError::Snapshot(format!(
                "section {} is not column {attr}",
                attr + 1
            )));
        }
        let slice = section_slice(bytes, section);
        let (&tag, _) = slice
            .split_first()
            .ok_or_else(|| ColumnarError::Snapshot("empty column section".into()))?;
        let width = Width::from_tag(tag).ok_or_else(|| {
            ColumnarError::Snapshot(format!("column {attr}: bad width tag {tag}"))
        })?;
        let start = section.offset as usize + 1;
        columns.push((width, start..start + (section.len as usize - 1)));
    }
    let sketch = match sketch_section {
        Some(section) => {
            let lead = format.frame.map_or(0, |(_, base)| base % page::PAGE_ROWS);
            let sketch = DatasetSketch::decode(section_slice(bytes, section), lead)
                .map_err(|e| ColumnarError::Snapshot(format!("sketch section: {e}")))?;
            if sketch.num_rows() != n || sketch.num_columns() != h {
                return Err(ColumnarError::Snapshot(format!(
                    "sketch covers {} rows x {} columns but dataset is {n} x {h}",
                    sketch.num_rows(),
                    sketch.num_columns()
                )));
            }
            // Same shape is not enough: a histogram over a wider support
            // than the column's would index past every per-code counter
            // sized from the schema. (Page histograms that do not add up
            // to their page's rows never get this far — the sketch's own
            // decoder rejects them.)
            for (attr, field) in fields.iter().enumerate() {
                let sketched = sketch.column(attr).expect("column count checked above").support();
                if sketched != field.support() {
                    return Err(ColumnarError::Snapshot(format!(
                        "sketch section: column {attr} is sketched over support {sketched} but \
                         the schema says {}",
                        field.support()
                    )));
                }
            }
            Some(sketch)
        }
        None => None,
    };
    Ok(Parsed { format, fields, n, columns, sketch })
}

/// Parses one schema field record.
fn parse_field(r: &mut ByteReader<'_>) -> Result<Field, ColumnarError> {
    let name = r.str()?.to_owned();
    let support = r.u32()?;
    let has_dict = r.u8()?;
    if has_dict > 1 {
        return Err(ColumnarError::Snapshot(format!("invalid dictionary flag {has_dict}")));
    }
    if has_dict == 1 {
        // Each value needs at least its 4-byte length prefix.
        let count = r.list_len(4)?;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(r.str()?.to_owned());
        }
        let dict = Dictionary::from_values(values)
            .ok_or_else(|| ColumnarError::Snapshot("duplicate dictionary value".into()))?;
        if dict.len() as u32 != support {
            return Err(ColumnarError::Snapshot("dictionary size disagrees with support".into()));
        }
        Ok(Field::with_dictionary(name, dict))
    } else {
        Ok(Field::new(name, support))
    }
}

/// The payload bytes of a validated section (offsets were checked
/// against `bytes.len()` by `validate_sections`).
fn section_slice<'a>(bytes: &'a [u8], s: &Section) -> &'a [u8] {
    &bytes[s.offset as usize..(s.offset + s.len) as usize]
}

fn store_err(e: swope_store::StoreError) -> ColumnarError {
    ColumnarError::Snapshot(e.to_string())
}

/// Writes `dataset` to the file at `path`, replacing whatever is there
/// *by rename*: the bytes go to a sibling temp file that is renamed over
/// `path` once complete. A snapshot may be mapped by a running server
/// (or be the very file `dataset` is paged from); truncating it in place
/// would turn that process's next page read into a SIGBUS, whereas the
/// old inode keeps backing every live mapping until it is unmapped. A
/// failed write leaves `path` as it was.
pub fn write_file(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), ColumnarError> {
    let path = path.as_ref();
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = (|| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        write(dataset, &mut f)?;
        f.flush()?;
        Ok(std::fs::rename(&tmp, path)?)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn truncated() -> ColumnarError {
    ColumnarError::Snapshot("truncated input".into())
}

impl From<ReadError> for ColumnarError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::NotUtf8 => ColumnarError::Snapshot("invalid UTF-8".into()),
            _ => truncated(),
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/snapshot_v2.rs"]
mod v2_encoder;

#[cfg(test)]
mod tests {
    use super::v2_encoder::v2_of;
    use super::*;
    use crate::DatasetBuilder;

    /// Where [`sample`]'s schema section starts in its v3 encoding:
    /// after the header and a table of four sections.
    const SCHEMA_AT: usize = HEADER_BYTES + 4 * 24;

    /// Where its first field record starts: past `h`, `N` and the seed.
    const FIELDS_AT: usize = SCHEMA_AT + 4 + 8 + 8;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(vec!["color".into(), "size".into()]);
        for row in [["red", "s"], ["blue", "m"], ["red", "l"], ["green", "s"]] {
            b.push_row(&row).unwrap();
        }
        b.finish()
    }

    /// Offset and length of a v2 snapshot's last section (the sketch,
    /// for anything the writer in this file produced).
    fn last_section(bytes: &[u8]) -> (usize, usize) {
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let entry = HEADER_BYTES + (count - 1) * swope_store::section::SECTION_ENTRY_BYTES;
        let off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap());
        (off as usize, len as usize)
    }

    /// Rewrites a freshly encoded snapshot into the pre-sketch v2
    /// layout: drops the last (sketch) section and shifts every
    /// remaining offset back over the removed table entry.
    fn strip_sketch(bytes: &[u8]) -> Vec<u8> {
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let entry = swope_store::section::SECTION_ENTRY_BYTES;
        let (sketch_off, _) = last_section(bytes);
        let mut out = Vec::new();
        out.extend_from_slice(&bytes[..8]);
        out.extend_from_slice(&((count - 1) as u32).to_le_bytes());
        for i in 0..count - 1 {
            let e = HEADER_BYTES + i * entry;
            out.extend_from_slice(&bytes[e..e + 8]);
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) - entry as u64;
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&bytes[e + 16..e + 24]);
        }
        out.extend_from_slice(&bytes[HEADER_BYTES + count * entry..sketch_off]);
        out
    }

    /// A dataset spanning all three storage widths.
    fn tri_width() -> Dataset {
        tri_width_from(0)
    }

    /// [`tri_width`] with every code sequence started `shift` rows in:
    /// same shape and snapshot size, different bytes.
    fn tri_width_from(shift: u32) -> Dataset {
        tri_width_rows(shift..shift + 3000)
    }

    /// The three widths (and so both sketch layouts: dense up to a
    /// support of 256, sparse above) over the codes of `rows`.
    fn tri_width_rows(rows: std::ops::Range<u32>) -> Dataset {
        let schema = Schema::new(vec![
            Field::new("narrow", 256),
            Field::new("mid", 70_000 - 30_000), // u16
            Field::new("wide", 70_000),         // u32
        ]);
        let cols = vec![
            Column::new(rows.clone().map(|i| i % 256).collect(), 256).unwrap(),
            Column::new(rows.clone().map(|i| (i * 13) % 40_000).collect(), 40_000).unwrap(),
            Column::new(rows.map(|i| (i * 23) % 70_000).collect(), 70_000).unwrap(),
        ];
        Dataset::new(schema, cols).unwrap()
    }

    /// `bytes` opened to the heap, sketch included.
    fn open_bytes(bytes: &[u8]) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
        open_on(Arc::new(HeapMapping::from(bytes.to_vec())), Residency::Heap)
    }

    fn open_paged(
        path: &Path,
        cache: Arc<PageCache>,
    ) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
        open(path, Residency::Paged(&cache))
    }

    #[test]
    fn encode_decode_round_trips() {
        let ds = sample();
        let bytes = encode(&ds);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn v2_round_trip_preserves_widths() {
        let ds = tri_width();
        let back = decode(&encode(&ds)).unwrap();
        assert_eq!(back, ds);
        assert_eq!(back.column(0).width(), Width::U8);
        assert_eq!(back.column(1).width(), Width::U16);
        assert_eq!(back.column(2).width(), Width::U32);
        // Narrow columns really are narrower on disk: the u8 column's
        // section is about a quarter of the u32 column's. Measured net
        // of the sketch section, which scales with distinct codes, not
        // rows.
        let bytes = encode(&ds);
        let (sketch_off, _) = last_section(&bytes);
        assert!(sketch_off < 3000 * 3 * 4, "paged v2 should be smaller than all-u32 runs");
    }

    #[test]
    fn round_trips_without_dictionaries() {
        let schema = Schema::new(vec![Field::new("n", 5)]);
        let col = Column::new(vec![0, 4, 2], 5).unwrap();
        let ds = Dataset::new(schema, vec![col]).unwrap();
        let back = decode(&encode(&ds)).unwrap();
        assert_eq!(back, ds);
        assert!(back.schema().field(0).unwrap().dictionary().is_none());
    }

    #[test]
    fn rejects_bad_magic() {
        // Corrupting any of the four magic bytes must fail, not misparse.
        for i in 0..4 {
            let mut bytes = encode(&sample()).to_vec();
            bytes[i] ^= 0xff;
            assert!(decode(&bytes).is_err(), "corrupt magic byte {i} should fail");
        }
    }

    #[test]
    fn rejects_wrong_version() {
        // 1 was the flat pre-paging format; nothing reads it any more.
        for version in [0u8, 1, 5, 99] {
            let mut bytes = encode(&sample()).to_vec();
            bytes[4] = version;
            let err = decode(&bytes).unwrap_err().to_string();
            assert!(err.contains(&format!("unsupported version {version}")), "{err}");
            assert!(!err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix_boundary() {
        // Every strict prefix of a valid buffer crosses the header, the
        // section table, or some section mid-payload; decode must return
        // an error at all of them — never panic, never accept a shorter
        // dataset. (Covers the section-table boundaries in particular:
        // with 4 sections the table spans bytes 12..108 — and every cut
        // inside the trailing sketch section, satisfying the
        // truncated-sketch boundary requirement.) A v2 file as much as a
        // v3 one, and a v4 slice.
        for bytes in [encode(&sample()), v2_of(&encode(&sample())), encode(&slice())] {
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
            }
        }
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        // Flip every byte in turn: decode may reject or (for bytes that
        // don't affect meaning, like the reserved flags) accept, but it
        // must always return rather than panic or over-allocate. A v2
        // file as much as a v3 one, and a v4 slice.
        for bytes in [encode(&sample()), v2_of(&encode(&sample())), encode(&slice())] {
            for i in 0..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 0xff;
                let _ = decode(&corrupt);
            }
        }
    }

    #[test]
    fn column_page_corruption_fails_checksum() {
        let ds = tri_width();
        let bytes = encode(&ds);
        // The byte just before the sketch section is inside the last
        // column's page payload; flipping it must trip that page's CRC.
        let (sketch_off, _) = last_section(&bytes);
        let mut corrupt = bytes.clone();
        corrupt[sketch_off - 1] ^= 1;
        let err = decode(&corrupt).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn sketch_round_trips_and_matches_rebuild() {
        for ds in [sample(), tri_width()] {
            let (back, sketch) = open_bytes(&encode(&ds)).unwrap();
            assert_eq!(back, ds);
            assert_eq!(sketch.expect("writer always emits a sketch"), build_sketch(&ds));
        }
    }

    #[test]
    fn pre_sketch_v2_snapshot_reads_with_none() {
        let ds = tri_width();
        let stripped = strip_sketch(&encode(&ds));
        let (back, sketch) = open_bytes(&stripped).unwrap();
        assert_eq!(back, ds);
        assert!(sketch.is_none(), "pre-sketch v2 files must degrade gracefully");
        // The plain reader sees the same dataset.
        assert_eq!(decode(&stripped).unwrap(), ds);
    }

    #[test]
    fn sketch_corruption_is_a_one_line_error() {
        // Few rows: the sweep below checksums the whole section once per
        // byte of it, and a sketch grows with distinct codes a page.
        let ds = tri_width_rows(0..120);
        assert_eq!(
            [0, 1, 2].map(|a| build_sketch(&ds).column(a).unwrap().kind()),
            [
                swope_sketch::SketchKind::Compact,
                swope_sketch::SketchKind::Sparse,
                swope_sketch::SketchKind::Sparse
            ]
        );
        let bytes = encode(&ds);
        let (sketch_off, sketch_len) = last_section(&bytes);
        // Flip every byte of the sketch section in turn: the reader
        // must reject (CRC guards the payload; the length/kind checks
        // guard a forged CRC) with a one-line error naming the sketch.
        for i in sketch_off..sketch_off + sketch_len {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xff;
            let err = decode(&corrupt).unwrap_err().to_string();
            assert!(err.contains("sketch") && !err.contains('\n'), "byte {i}: {err}");
        }
    }

    /// `bytes` with its trailing sketch section replaced by `sketch`'s
    /// encoding (section length patched; the sketch's own CRC is valid).
    fn with_sketch(bytes: &[u8], sketch: &DatasetSketch) -> Vec<u8> {
        let (sketch_off, _) = last_section(bytes);
        let payload = sketch.encode();
        let mut out = bytes[..sketch_off].to_vec();
        out.extend_from_slice(&payload);
        let count = u32::from_le_bytes(out[8..12].try_into().unwrap()) as usize;
        let len_at = HEADER_BYTES + (count - 1) * swope_store::section::SECTION_ENTRY_BYTES + 16;
        out[len_at..len_at + 8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out
    }

    #[test]
    fn sketch_shape_mismatch_is_rejected() {
        // Splice in a syntactically valid sketch describing a different
        // dataset shape (0 rows, 0 columns): the cross-check against
        // the schema must fail even though the sketch's own CRC passes.
        let ds = sample();
        let out = with_sketch(
            &encode(&ds),
            &build_sketch(&Dataset::new(Schema::new(vec![]), vec![]).unwrap()),
        );
        let err = decode(&out).unwrap_err();
        assert!(err.to_string().contains("sketch covers"), "{err}");
    }

    #[test]
    fn same_shape_sketch_over_other_supports_is_rejected() {
        // A CRC-valid sketch of the right rows x columns whose first
        // column is sketched over a wider support than the schema's: it
        // would index past every counter sized from the schema, so the
        // snapshot must not load — heap or paged — and must say why.
        let ds = sample();
        let (fields, columns) = (0..ds.num_attrs())
            .map(|a| {
                let support = ds.support(a) + if a == 0 { 5 } else { 0 };
                let column = Column::new(ds.column(a).to_codes(), support).unwrap();
                (Field::new(format!("c{a}"), support), column)
            })
            .unzip();
        let wider = Dataset::new(Schema::new(fields), columns).unwrap();
        let out = with_sketch(&encode(&ds), &build_sketch(&wider));
        let msg = decode(&out).unwrap_err().to_string();
        assert!(msg.contains("sketch section: column 0"), "{msg}");
        assert!(!msg.contains('\n'), "{msg}");
        let path = std::env::temp_dir()
            .join(format!("swope-snapshot-foreign-sketch-{}.swop", std::process::id()));
        std::fs::write(&path, &out).unwrap();
        let paged = open_paged(&path, Arc::new(PageCache::unbounded()));
        std::fs::remove_file(&path).ok();
        assert!(paged.unwrap_err().to_string().contains("sketch section: column 0"));
    }

    #[test]
    fn schema_corruption_fails_checksum() {
        let ds = sample();
        let bytes = encode(&ds);
        // First byte of the first field name: past its name_len.
        let name_at = FIELDS_AT + 4;
        assert_eq!(bytes[name_at], b'c', "offset arithmetic drifted");
        let mut corrupt = bytes.clone();
        corrupt[name_at] = b'x';
        let err = decode(&corrupt).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn rejects_invalid_dictionary_flag() {
        let ds = sample();
        let mut bytes = encode(&ds);
        // The first field's has_dict flag: past (name_len + name) and
        // support.
        let name_len = ds.schema().field(0).unwrap().name().len();
        let flag_at = FIELDS_AT + 4 + name_len + 4;
        assert_eq!(bytes[flag_at], 1, "offset arithmetic drifted");
        bytes[flag_at] = 2;
        reseal_schema(&mut bytes); // so the flag check itself is reached
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("dictionary flag"), "{err}");
    }

    /// Recomputes the schema section's trailing CRC after a test edited
    /// the section in place, so the edited field itself is what the
    /// reader trips over.
    fn reseal_schema(bytes: &mut [u8]) {
        let (at, len) = schema_section(bytes);
        let crc = crc32(&bytes[at..at + len - 4]);
        bytes[at + len - 4..at + len].copy_from_slice(&crc.to_le_bytes());
    }

    /// Offset and length of the schema section: the first table entry's.
    fn schema_section(bytes: &[u8]) -> (usize, usize) {
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        (field(HEADER_BYTES + 8), field(HEADER_BYTES + 16))
    }

    #[test]
    fn rejects_dictionary_support_mismatch() {
        // Declare one more code than the first field's dictionary holds.
        let ds = sample();
        let mut bytes = encode(&ds);
        let name_len = ds.schema().field(0).unwrap().name().len();
        let support_at = FIELDS_AT + 4 + name_len;
        assert_eq!(bytes[support_at..support_at + 4], 3u32.to_le_bytes(), "offsets drifted");
        bytes[support_at] = 4;
        reseal_schema(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn rejects_non_utf8_field_name() {
        let ds = sample();
        let mut bytes = encode(&ds);
        // Corrupt the first field-name byte and re-seal the schema CRC
        // so the UTF-8 check (not the checksum) is what rejects it.
        let name_at = FIELDS_AT + 4;
        bytes[name_at] = 0xff;
        reseal_schema(&mut bytes);
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn rejects_oversized_declared_sizes_without_allocating() {
        // A header declaring astronomically many sections must fail the
        // up-front size check instead of attempting the allocation.
        let mut v2 = Vec::new();
        v2.extend_from_slice(MAGIC);
        v2.extend_from_slice(&VERSION.to_le_bytes());
        v2.extend_from_slice(&0u16.to_le_bytes());
        v2.extend_from_slice(&u32::MAX.to_le_bytes()); // section_count
        assert!(decode(&v2).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample()).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("swope-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.swop");
        let ds = sample();
        write_file(&ds, &path).unwrap();
        let (back, _) = open(&path, Residency::Heap).unwrap();
        assert_eq!(back, ds);
        std::fs::remove_file(&path).ok();
    }

    /// Writes `ds` to a fresh temp snapshot and returns the path.
    fn temp_snapshot(ds: &Dataset, name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("swope-snapshot-paged-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        write_file(ds, &path).unwrap();
        path
    }

    #[test]
    fn open_paged_round_trips_all_widths() {
        let ds = tri_width();
        let path = temp_snapshot(&ds, "tri.swop");
        let (paged, sketch) = open_paged(&path, Arc::new(PageCache::unbounded())).unwrap();
        assert!(paged.column(0).is_paged());
        assert_eq!(paged.column(0).width(), Width::U8);
        assert_eq!(paged.column(1).width(), Width::U16);
        assert_eq!(paged.column(2).width(), Width::U32);
        // Opening touches no payload: nothing resident, no CRC checked yet.
        assert_eq!(paged.column(0).bytes_in_memory(), 0);
        assert_eq!(paged, ds, "paged and heap loads are logically identical");
        assert_eq!(sketch.expect("writer emits a sketch"), build_sketch(&ds));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_paged_under_tiny_budget_matches_and_rewrites_identically() {
        let ds = tri_width();
        let path = temp_snapshot(&ds, "tiny-budget.swop");
        let original = std::fs::read(&path).unwrap();
        // A 1-byte budget forces every fault to evict; reads and the
        // streaming re-writer must still be exact.
        let (paged, _) = open_paged(&path, Arc::new(PageCache::new(Some(1)))).unwrap();
        assert_eq!(paged.column(2).value_counts(), ds.column(2).value_counts());
        let rewritten = encode(&paged);
        assert_eq!(rewritten, original, "paged re-snapshot is byte-identical");
        // And the paged dataset's sketch rebuild matches the heap one.
        assert_eq!(build_sketch(&paged), build_sketch(&ds));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_file_replaces_by_rename_so_an_open_mapping_keeps_its_bytes() {
        let (old, new) = (tri_width(), tri_width_from(7));
        let path = temp_snapshot(&old, "replaced.swop");
        // A 1-byte budget: every page read is released again, so reads
        // after the overwrite really do go back to the file.
        let (paged, _) = open_paged(&path, Arc::new(PageCache::new(Some(1)))).unwrap();
        // One column touched (and CRC-checked) before the overwrite, the
        // other two still cold when it happens.
        assert_eq!(paged.column(0).to_codes(), old.column(0).to_codes());
        write_file(&new, &path).unwrap();
        // (`assert!`, not `assert_eq!`: a failure should not print snapshots.)
        assert!(std::fs::read(&path).unwrap() == encode(&new));
        assert!(encode(&paged) == encode(&old), "the open dataset answers its old bytes");
        let (fresh, _) = open_paged(&path, Arc::new(PageCache::unbounded())).unwrap();
        assert_eq!(fresh, new, "a fresh open sees the new ones");
        // A paged dataset can even be re-snapshotted over its own file.
        write_file(&fresh, &path).unwrap();
        assert_eq!(fresh, new);
        assert_eq!(open(&path, Residency::Heap).unwrap().0, new);
        std::fs::remove_file(&path).ok();

        // A write that cannot finish — the target is a directory — is an
        // error, and leaves no temp file beside it (nor did the writes
        // above).
        let target = path.with_file_name("replaced.dir");
        std::fs::create_dir_all(&target).unwrap();
        assert!(write_file(&new, &target).is_err());
        let left: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("replaced."))
            .collect();
        assert_eq!(left, ["replaced.dir"]);
        std::fs::remove_dir(&target).ok();
    }

    #[test]
    fn open_paged_corrupt_page_fails_on_first_touch_only() {
        let ds = tri_width();
        let path = temp_snapshot(&ds, "corrupt.swop");
        let mut bytes = std::fs::read(&path).unwrap();
        // The byte just before the sketch section sits in the last
        // column's final page payload.
        let (sketch_off, _) = last_section(&bytes);
        bytes[sketch_off - 1] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        // Eager load rejects up front; paged open succeeds (CRCs are
        // lazy) and only the corrupt column's touch fails.
        assert!(open(&path, Residency::Heap).is_err());
        let (paged, _) = open_paged(&path, Arc::new(PageCache::unbounded())).unwrap();
        assert_eq!(paged.column(0).value_counts(), ds.column(0).value_counts());
        let last = paged.num_attrs() - 1;
        let err = paged
            .column(last)
            .paged()
            .unwrap()
            .value_counts()
            .expect_err("corrupt page must fail on first touch");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_dataset_round_trips() {
        let ds = DatasetBuilder::new(vec!["a".into()]).finish();
        let back = decode(&encode(&ds)).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.num_attrs(), 1);
    }

    /// A dataset over two pages and a short third, in all three widths:
    /// enough rows that the layout moves codes across a page.
    fn paged_tri_width() -> Dataset {
        tri_width_rows(0..(2 * page::PAGE_ROWS + 321) as u32)
    }

    #[test]
    fn heap_page_bytes_are_the_stored_bytes() {
        // The writer emits a heap column's stored bytes, layout order and
        // all: concatenated, a column section's page payloads are them.
        let ds = paged_tri_width();
        let bytes = encode(&ds);
        let parsed = parse(&bytes).unwrap();
        for (attr, (width, range)) in parsed.columns.iter().enumerate() {
            let stream = &bytes[range.clone()];
            let mut payloads = Vec::new();
            let grid = ds.layout().grid();
            for index in 0..grid.count() {
                let at = page::page_offset(grid, index, *width);
                let rows = page::read_u32(stream, at) as usize;
                let payload = at + page::PAGE_HEADER_BYTES;
                payloads.extend_from_slice(&stream[payload..payload + rows * width.bytes()]);
            }
            let mut stored = Vec::new();
            let column = ds.column(attr);
            let codes = swope_store::PackedCodes::pack(&column.stored_codes(), column.width());
            swope_store::for_packed!(&codes, |codes| CodeRepr::extend_le_bytes(codes, &mut stored));
            assert!(payloads == stored, "column {attr}: pages are not the stored bytes");
        }
        // And a heap load takes them as they are.
        let back = decode(&bytes).unwrap();
        for attr in 0..ds.num_attrs() {
            let (back, column) = (back.column(attr), ds.column(attr));
            assert_eq!(
                (back.width(), back.stored_codes()),
                (column.width(), column.stored_codes())
            );
        }
    }

    #[test]
    fn v2_opens_on_the_heap_and_paged_equal_to_its_v3_rewrite() {
        let ds = paged_tri_width();
        let v3 = encode(&ds);
        let v2 = v2_of(&v3);
        assert_eq!(v2.len(), v3.len() - 8, "v2 has no seed");
        assert_eq!(decode(&v2).unwrap(), ds);
        // Its v3 rewrite is the v3 encoding, byte for byte.
        let (heap, sketch) = open_bytes(&v2).unwrap();
        assert!(encode(&heap) == v3, "a v2 heap load re-encodes to the v3 bytes");
        assert_eq!(sketch, Some(build_sketch(&ds)), "page histograms ignore the page order");
        let dir = std::env::temp_dir().join("swope-snapshot-paged-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes, sketched) in
            [("v2.swop", v2.clone(), true), ("v2-bare.swop", strip_sketch(&v2), false)]
        {
            let path = dir.join(name);
            std::fs::write(&path, &bytes).unwrap();
            let want = Format { version: 2, layout_seed: None, frame: None };
            assert_eq!(format(&path).unwrap(), want, "{name}");
            for budget in [None, Some(1)] {
                let (paged, sketch) = open_paged(&path, Arc::new(PageCache::new(budget))).unwrap();
                assert!(paged.column(0).is_paged());
                assert_eq!(paged, ds, "{name} paged under {budget:?}");
                assert!(encode(&paged) == v3, "{name}: paged rewrite is the v3 encoding");
                assert_eq!(sketch.is_some(), sketched, "{name}: the file's own sketch or none");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_wrong_layout_seed_is_a_one_line_error() {
        let mut bytes = encode(&sample());
        let seed_at = SCHEMA_AT + 4 + 8;
        assert_eq!(bytes[seed_at..seed_at + 8], LAYOUT_SEED.to_le_bytes(), "offsets drifted");
        let other = LAYOUT_SEED ^ 1;
        bytes[seed_at..seed_at + 8].copy_from_slice(&other.to_le_bytes());
        reseal_schema(&mut bytes); // so the seed check itself is reached
        let msg = decode(&bytes).unwrap_err().to_string();
        assert!(msg.contains(&format!("seed {other:#x}")) && !msg.contains('\n'), "{msg}");
        let path = std::env::temp_dir()
            .join(format!("swope-snapshot-foreign-seed-{}.swop", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let paged = open_paged(&path, Arc::new(PageCache::unbounded())).map(|_| ());
        let header = format(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(paged.unwrap_err().to_string(), msg);
        assert_eq!(header.unwrap_err().to_string(), msg);
    }

    #[test]
    fn format_reports_the_version_and_the_seed() {
        let path = temp_snapshot(&sample(), "format.swop");
        let want = Format { version: VERSION, layout_seed: Some(LAYOUT_SEED), frame: None };
        assert_eq!(format(&path).unwrap(), want);
        std::fs::remove_file(&path).ok();
    }

    /// A slice of [`sample`]: rows 1..4, so its grid leads with a slot.
    fn slice() -> Dataset {
        sample().take_rows(&[1, 2, 3])
    }

    /// A slice cut inside a page past page 0 writes v4 — its frame after
    /// the seed, its pages and sketch on its table's grid — and reads back
    /// as that slice on the heap and paged, under any budget; re-encoded
    /// from its pages it is the same bytes.
    #[test]
    fn a_slice_writes_v4_and_reads_back_in_its_frame() {
        let table = paged_tri_width();
        let base = page::PAGE_ROWS + 4_000;
        let ds = table.take_rows(&(base..table.num_rows()).collect::<Vec<_>>());
        assert_eq!(ds.frame(), (table.num_rows(), base));
        let bytes = encode(&ds);
        assert_eq!(bytes[4..6], SLICE_VERSION.to_le_bytes());
        let frame_at = schema_section(&bytes).0 + 4 + 8 + 8;
        assert_eq!(bytes[frame_at..frame_at + 8], (table.num_rows() as u64).to_le_bytes());
        assert_eq!(bytes[frame_at + 8..frame_at + 16], (base as u64).to_le_bytes());
        let (heap, sketch) = open_bytes(&bytes).unwrap();
        assert_eq!((heap.frame(), &heap), (ds.frame(), &ds));
        for attr in 0..ds.num_attrs() {
            let (heap, column) = (heap.column(attr), ds.column(attr));
            assert_eq!(
                (heap.width(), heap.stored_codes()),
                (column.width(), column.stored_codes())
            );
        }
        let sketch = sketch.expect("writer emits a sketch");
        assert_eq!(sketch, build_sketch(&ds));
        assert_eq!((sketch.num_pages(), sketch.grid().lead()), (2, 4_000));
        let path = temp_snapshot(&ds, "slice.swop");
        let want = Some((table.num_rows(), base));
        assert_eq!(format(&path).unwrap().frame, want);
        for budget in [None, Some(1)] {
            let (paged, sketch) = open_paged(&path, Arc::new(PageCache::new(budget))).unwrap();
            assert_eq!((paged.frame(), &paged), (ds.frame(), &ds), "paged under {budget:?}");
            assert_eq!(sketch.as_ref(), Some(&build_sketch(&paged)));
            assert!(encode(&paged) == bytes, "paged rewrite is the v4 encoding");
        }
        std::fs::remove_file(&path).ok();
        // A frame that does not hold the slice is a one-line error.
        let mut bad = bytes.clone();
        bad[frame_at + 8..frame_at + 16].copy_from_slice(&(base as u64 + 1).to_le_bytes());
        reseal_schema(&mut bad);
        let msg = decode(&bad).unwrap_err().to_string();
        assert!(msg.contains("frame places") && !msg.contains('\n'), "{msg}");
    }
}
