//! The `SWOP` binary on-disk format for datasets.
//!
//! Version 2 (the writer's format) is paged and checksummed so a reader
//! can reject bit rot before trusting anything, and sectioned so the
//! layout is validated against the file's real size before any payload
//! byte is touched. All integers little-endian:
//!
//! ```text
//! header (12 bytes):
//!   magic         b"SWOP"      4 bytes
//!   version       u16          2
//!   flags         u16          reserved, 0
//!   section_count u32          1 (schema) + h (one per column) [+ 1 sketch]
//! section table (24 bytes per entry, see `swope_store::section`):
//!   kind u32, attr u32, offset u64, len u64
//! schema section payload:
//!   h u32, N u64
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
//! The sketch section is *optional on read*: v2 files written before it
//! existed decode exactly as they always did, and [`decode_with_sketch`]
//! reports `None` for them. The writer always emits one so freshly
//! written snapshots support scoped queries without a load-time rebuild.
//!
//! Column codes are stored at their in-memory packed width, so a `u8`
//! column costs one byte per row on disk too. Every section length is a
//! pure function of the schema and row count, which lets [`write()`]
//! stream: it emits the complete header and section table first, then
//! pages each column through one reusable page buffer — no
//! whole-snapshot staging in memory.
//!
//! Version 1 (one flat `u32` run per column, no checksums) is still
//! *read* for back-compat; v1 columns materialize as `u32`-packed
//! storage. [`encode_v1`] keeps the legacy writer available for tests
//! and downgrade tooling.

use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use swope_pager::{Mapping, PageCache, PagedColumn};
use swope_sketch::{ColumnSketch, ColumnSketchBuilder, DatasetSketch};
use swope_store::crc32::crc32;
use swope_store::section::{
    validate_sections, Section, SECTION_COLUMN, SECTION_SCHEMA, SECTION_SKETCH,
};
use swope_store::{page, PackedColumn, Width};

use crate::{Column, ColumnStorage, ColumnarError, Dataset, Dictionary, Field, Schema};

const MAGIC: &[u8; 4] = b"SWOP";
const VERSION: u16 = 2;
const V1: u16 = 1;

/// Bytes before the section table: magic + version + flags + count.
const HEADER_BYTES: usize = 12;

/// Serializes `dataset` into a byte buffer (v2 format).
pub fn encode(dataset: &Dataset) -> Vec<u8> {
    let mut buf = Vec::new();
    write(dataset, &mut buf).expect("Vec writes are infallible");
    buf
}

/// Streams `dataset` in v2 snapshot format to `writer`.
///
/// The header and section table are emitted first (every section length
/// is computable up front), then columns are paged out through one
/// reusable buffer — peak extra memory is one page, not the snapshot.
pub fn write<W: Write>(dataset: &Dataset, writer: &mut W) -> Result<(), ColumnarError> {
    let h = dataset.num_attrs();
    let n = dataset.num_rows();

    let mut schema_payload = Vec::new();
    schema_payload.extend_from_slice(&(h as u32).to_le_bytes());
    schema_payload.extend_from_slice(&(n as u64).to_le_bytes());
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
        let len = 1 + page::encoded_len(n, width) as u64;
        Section { kind: SECTION_COLUMN, attr: attr as u32, offset, len }.write_into(&mut table);
        offset += len;
    }
    Section { kind: SECTION_SKETCH, attr: 0, offset, len: sketch_payload.len() as u64 }
        .write_into(&mut table);

    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&0u16.to_le_bytes())?;
    writer.write_all(&(section_count as u32).to_le_bytes())?;
    writer.write_all(&table)?;
    writer.write_all(&schema_payload)?;
    for attr in 0..h {
        let column = dataset.column(attr);
        writer.write_all(&[column.width().tag()])?;
        match column.storage() {
            ColumnStorage::Heap(packed) => page::write_pages(packed.codes(), writer)?,
            ColumnStorage::Paged(paged) => write_paged_column(paged, writer)?,
        }
    }
    writer.write_all(&sketch_payload)?;
    Ok(())
}

/// Streams a pager-backed column's page payload one page at a time,
/// straight from the bytes the mapping holds — re-snapshotting an
/// out-of-core dataset copies nothing but the output, and every page's
/// CRC is verified (once, on first touch) on the way through.
fn write_paged_column<W: Write>(paged: &PagedColumn, writer: &mut W) -> Result<(), ColumnarError> {
    if paged.page_rows() != page::PAGE_ROWS {
        // Foreign page geometry (only a hand-crafted file can carry one):
        // materialize and re-page at the standard size.
        let codes = paged.to_codes().map_err(store_err)?;
        let packed =
            PackedColumn::with_width(codes, paged.support(), paged.width()).map_err(store_err)?;
        return page::write_pages(packed.codes(), writer).map_err(Into::into);
    }
    writer.write_all(&(page::PAGE_ROWS as u32).to_le_bytes())?;
    writer.write_all(&(paged.num_pages() as u32).to_le_bytes())?;
    for index in 0..paged.num_pages() {
        let codes = paged.page(index).map_err(store_err)?;
        writer.write_all(&(codes.len() as u32).to_le_bytes())?;
        writer.write_all(&crc32(codes.payload()).to_le_bytes())?;
        writer.write_all(codes.payload())?;
    }
    Ok(())
}

/// Builds the per-page partition sketch for `dataset` from its packed
/// columns (exact per-page code histograms; see `swope_sketch`). Paged
/// columns are sketched one page at a time, in place, so the build stays
/// within the pager's byte budget.
pub fn build_sketch(dataset: &Dataset) -> DatasetSketch {
    let columns = (0..dataset.num_attrs())
        .map(|attr| match dataset.column(attr).storage() {
            ColumnStorage::Heap(packed) => ColumnSketch::build(packed),
            ColumnStorage::Paged(paged) => sketch_paged(paged),
        })
        .collect();
    DatasetSketch::new(dataset.num_rows(), columns)
}

/// Sketches a pager-backed column page-by-page. Panics on a corrupt
/// page, matching the heap column accessors' contract.
fn sketch_paged(paged: &PagedColumn) -> ColumnSketch {
    if paged.page_rows() != page::PAGE_ROWS {
        let codes = paged.to_codes().unwrap_or_else(|e| panic!("{e}"));
        return ColumnSketch::build(&PackedColumn::new_unchecked(codes, paged.support()));
    }
    let mut builder = ColumnSketchBuilder::new(paged.support());
    for index in 0..paged.num_pages() {
        let codes = paged.page(index).unwrap_or_else(|e| panic!("{e}"));
        builder.push_page(|counts| codes.for_each(|c| counts[c as usize] += 1));
    }
    builder.finish()
}

/// Serializes `dataset` in the legacy v1 format (flat `u32` runs, no
/// checksums). Kept for back-compat tests and downgrade tooling.
pub fn encode_v1(dataset: &Dataset) -> Vec<u8> {
    let h = dataset.num_attrs();
    let n = dataset.num_rows();
    let mut buf = Vec::with_capacity(64 + h * 32 + h * n * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&V1.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&(h as u32).to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    for field in dataset.schema().fields() {
        put_str(&mut buf, field.name());
        buf.extend_from_slice(&field.support().to_le_bytes());
        match field.dictionary() {
            Some(dict) => {
                buf.push(1);
                buf.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                for (_, v) in dict.iter() {
                    put_str(&mut buf, v);
                }
            }
            None => buf.push(0),
        }
    }
    for attr in 0..h {
        for code in dataset.column(attr).to_codes() {
            buf.extend_from_slice(&code.to_le_bytes());
        }
    }
    buf
}

/// Deserializes a dataset from `bytes`, dispatching on the format
/// version: v2 (paged, checksummed) or legacy v1 (flat `u32` runs,
/// materialized as `u32`-packed columns).
pub fn decode(bytes: &[u8]) -> Result<Dataset, ColumnarError> {
    decode_with_sketch(bytes).map(|(dataset, _)| dataset)
}

/// Like [`decode`], but also returns the partition sketch when the
/// snapshot carries one. v1 snapshots and pre-sketch v2 snapshots yield
/// `None`; a *present but* truncated or corrupt sketch section is an
/// error (a reader must not silently serve scoped queries from bad
/// counts).
pub fn decode_with_sketch(bytes: &[u8]) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
    let mut buf = bytes;
    let mut magic = [0u8; 4];
    take(&mut buf, &mut magic)?;
    if &magic != MAGIC {
        return Err(ColumnarError::Snapshot("bad magic".into()));
    }
    let version = get_u16(&mut buf)?;
    match version {
        V1 => decode_v1(buf).map(|dataset| (dataset, None)),
        VERSION => decode_v2(bytes, buf),
        other => Err(ColumnarError::Snapshot(format!(
            "unsupported version {other} (expected {V1} or {VERSION})"
        ))),
    }
}

/// Decodes the v2 body eagerly: every column's pages are CRC-checked
/// and unpacked to heap storage up front. `bytes` is the full snapshot
/// (for offset-based section slicing); `buf` starts right after the
/// version field.
fn decode_v2(bytes: &[u8], buf: &[u8]) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
    let parsed = parse_v2(bytes, buf)?;
    let n = parsed.n;
    let mut columns = Vec::with_capacity(parsed.fields.len());
    for (attr, ((width, range), field)) in parsed.columns.iter().zip(&parsed.fields).enumerate() {
        let codes = page::decode_pages(&bytes[range.clone()], n, *width)
            .map_err(|e| ColumnarError::Snapshot(format!("column {attr}: {e}")))?;
        let packed = PackedColumn::from_packed(codes, field.support())
            .map_err(|e| ColumnarError::Snapshot(format!("column {attr}: {e}")))?;
        columns.push(Column::from_packed(packed));
    }
    Dataset::new(Schema::new(parsed.fields), columns).map(|dataset| (dataset, parsed.sketch))
}

/// Opens the snapshot at `path` out-of-core: the file is mapped (or
/// buffered when mmap is unavailable — see `swope_pager::open_mapping`)
/// and every v2 column becomes a [`PagedColumn`] reading its pages in
/// place and accounting them through `cache` on first touch. Page CRCs
/// are verified lazily, at first touch, so opening costs section/schema
/// validation plus one 8-byte header walk per page — no payload reads —
/// and under a byte budget leaves none of the file resident.
/// v1 snapshots pre-date paging and fall back to the eager heap loader.
pub fn open_paged(
    path: impl AsRef<Path>,
    cache: Arc<PageCache>,
) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
    open_paged_on(swope_pager::open_mapping(path.as_ref())?, cache)
}

/// [`open_paged`] over a byte source the caller opened — how a test
/// picks the read fallback (or a mapping of its own) without the
/// process-wide `SWOPE_FORCE_READ`.
pub fn open_paged_on(
    mapping: Arc<dyn Mapping>,
    cache: Arc<PageCache>,
) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
    let bytes = mapping.bytes();
    let mut buf = bytes;
    let mut magic = [0u8; 4];
    take(&mut buf, &mut magic)?;
    if &magic != MAGIC {
        return Err(ColumnarError::Snapshot("bad magic".into()));
    }
    let version = get_u16(&mut buf)?;
    match version {
        V1 => return decode_v1(buf).map(|dataset| (dataset, None)),
        VERSION => {}
        other => {
            return Err(ColumnarError::Snapshot(format!(
                "unsupported version {other} (expected {V1} or {VERSION})"
            )))
        }
    }
    let parsed = parse_v2(bytes, buf)?;
    let n = parsed.n;
    let mut columns = Vec::with_capacity(parsed.fields.len());
    for (attr, ((width, range), field)) in parsed.columns.iter().zip(&parsed.fields).enumerate() {
        let paged = PagedColumn::open(
            mapping.clone(),
            cache.clone(),
            range.clone(),
            n,
            field.support(),
            *width,
        )
        .map_err(|e| ColumnarError::Snapshot(format!("column {attr}: {e}")))?;
        columns.push(Column::from_paged(paged));
    }
    if cache.budget_bytes().is_some() {
        // Parsing read the schema and sketch sections through the
        // mapping; both now live decoded on the heap. Nothing of the
        // file is counted resident yet, so nothing of it should be.
        mapping.release(0..bytes.len());
    }
    Dataset::new(Schema::new(parsed.fields), columns).map(|dataset| (dataset, parsed.sketch))
}

/// Everything a v2 snapshot declares short of column payload decoding:
/// the schema (CRC-checked), each column's stored width and payload
/// byte range, and the decoded sketch. Shared by the eager loader
/// ([`decode_v2`]) and the out-of-core one ([`open_paged`]).
struct ParsedV2 {
    fields: Vec<Field>,
    n: usize,
    /// Per attribute: stored width and the paged-payload byte range in
    /// the snapshot (past the width tag).
    columns: Vec<(Width, std::ops::Range<usize>)>,
    sketch: Option<DatasetSketch>,
}

/// Parses and validates a v2 snapshot's structure. `bytes` is the full
/// snapshot; `buf` starts right after the version field.
fn parse_v2(bytes: &[u8], mut buf: &[u8]) -> Result<ParsedV2, ColumnarError> {
    let _flags = get_u16(&mut buf)?;
    let section_count = get_u32(&mut buf)? as usize;
    // The table must fit the bytes present before a single entry (or a
    // sections Vec) is allocated: a corrupt count fails here, cheaply.
    let entry = swope_store::section::SECTION_ENTRY_BYTES;
    if (section_count as u64).saturating_mul(entry as u64) > buf.len() as u64 {
        return Err(truncated());
    }
    let mut sections = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        sections.push(Section::parse(&mut buf).map_err(store_err)?);
    }
    let body_start = (HEADER_BYTES + section_count * entry) as u64;
    validate_sections(&sections, body_start, bytes.len() as u64).map_err(store_err)?;

    let (schema_section, column_sections) = sections
        .split_first()
        .filter(|(s, _)| s.kind == SECTION_SCHEMA)
        .ok_or_else(|| ColumnarError::Snapshot("first section must be the schema".into()))?;

    // Schema payload: body + trailing CRC32 of the body.
    let slice = section_slice(bytes, schema_section);
    if slice.len() < 4 {
        return Err(truncated());
    }
    let (body, crc_bytes) = slice.split_at(slice.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split at len-4"));
    if crc32(body) != stored {
        return Err(ColumnarError::Snapshot("schema section checksum mismatch".into()));
    }
    let mut sbuf = body;
    let h = get_u32(&mut sbuf)? as usize;
    let n = get_u64(&mut sbuf)? as usize;
    // Each field needs at least 9 bytes (name_len + support + has_dict);
    // check before the fields Vec is sized from h.
    if (h as u64).saturating_mul(9) > sbuf.len() as u64 {
        return Err(truncated());
    }
    let mut fields = Vec::with_capacity(h);
    for _ in 0..h {
        fields.push(parse_field(&mut sbuf)?);
    }
    if !sbuf.is_empty() {
        return Err(ColumnarError::Snapshot(format!(
            "{} trailing bytes after schema fields",
            sbuf.len()
        )));
    }

    // The sketch section, when present, is exactly one entry after the
    // column sections. Anything else trailing the columns is a layout
    // error, not something to skip over.
    let (column_sections, sketch_section) = match column_sections.split_last() {
        Some((last, rest)) if last.kind == SECTION_SKETCH => (rest, Some(last)),
        _ => (column_sections, None),
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
            let sketch = DatasetSketch::decode(section_slice(bytes, section))
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
    Ok(ParsedV2 { fields, n, columns, sketch })
}

/// Decodes the legacy v1 body (after magic + version). Columns are
/// materialized at `u32` width — v1 carries no width information and
/// pre-dates packing.
fn decode_v1(mut bytes: &[u8]) -> Result<Dataset, ColumnarError> {
    let buf = &mut bytes;
    let _flags = get_u16(buf)?;
    let h = get_u32(buf)? as usize;
    let n = get_u64(buf)? as usize;

    // Sanity-check the declared sizes against the bytes actually present
    // *before* any allocation: a corrupted header must fail cleanly, not
    // attempt a multi-gigabyte Vec::with_capacity. Each field needs at
    // least 9 bytes (name_len + support + has_dict); each column needs
    // 4·n code bytes.
    let min_field_bytes = (h as u64).saturating_mul(9);
    let min_code_bytes = (h as u64).saturating_mul(n as u64).saturating_mul(4);
    if min_field_bytes.saturating_add(min_code_bytes) > buf.len() as u64 {
        return Err(truncated());
    }

    let mut fields = Vec::with_capacity(h);
    for _ in 0..h {
        fields.push(parse_field(buf)?);
    }

    let mut columns = Vec::with_capacity(h);
    for (attr, field) in fields.iter().enumerate() {
        let mut codes = Vec::with_capacity(n);
        for _ in 0..n {
            codes.push(get_u32(buf)?);
        }
        let col = PackedColumn::with_width(codes, field.support(), Width::U32)
            .map(Column::from_packed)
            .map_err(|_| {
                ColumnarError::Snapshot(format!("column {attr} contains out-of-range codes"))
            })?;
        columns.push(col);
    }
    if !buf.is_empty() {
        return Err(ColumnarError::Snapshot(format!("{} trailing bytes after dataset", buf.len())));
    }
    Dataset::new(Schema::new(fields), columns)
}

/// Parses one schema field record (shared by the v1 body and the v2
/// schema section, which use the same field encoding).
fn parse_field(buf: &mut &[u8]) -> Result<Field, ColumnarError> {
    let name = get_str(buf)?;
    let support = get_u32(buf)?;
    let has_dict = get_u8(buf)?;
    if has_dict > 1 {
        return Err(ColumnarError::Snapshot(format!("invalid dictionary flag {has_dict}")));
    }
    if has_dict == 1 {
        let count = get_u32(buf)? as usize;
        // Each value needs at least its 4-byte length prefix.
        if (count as u64).saturating_mul(4) > buf.len() as u64 {
            return Err(truncated());
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(get_str(buf)?);
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

/// Reads a snapshot dataset from `reader`.
pub fn read<R: Read>(reader: &mut R) -> Result<Dataset, ColumnarError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    decode(&bytes)
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

/// Reads a dataset from the file at `path`.
pub fn read_file(path: impl AsRef<Path>) -> Result<Dataset, ColumnarError> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    read(&mut f)
}

/// Reads a dataset plus its partition sketch (when present) from
/// `path`. See [`decode_with_sketch`] for the sketch semantics.
pub fn read_file_with_sketch(
    path: impl AsRef<Path>,
) -> Result<(Dataset, Option<DatasetSketch>), ColumnarError> {
    let mut bytes = Vec::new();
    std::io::BufReader::new(std::fs::File::open(path)?).read_to_end(&mut bytes)?;
    decode_with_sketch(&bytes)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Splits `out.len()` bytes off the front of `buf`, erroring on underrun.
fn take(buf: &mut &[u8], out: &mut [u8]) -> Result<(), ColumnarError> {
    if buf.len() < out.len() {
        return Err(truncated());
    }
    let (head, tail) = buf.split_at(out.len());
    out.copy_from_slice(head);
    *buf = tail;
    Ok(())
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, ColumnarError> {
    let mut b = [0u8; 1];
    take(buf, &mut b)?;
    Ok(b[0])
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, ColumnarError> {
    let mut b = [0u8; 2];
    take(buf, &mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, ColumnarError> {
    let mut b = [0u8; 4];
    take(buf, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, ColumnarError> {
    let mut b = [0u8; 8];
    take(buf, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_str(buf: &mut &[u8]) -> Result<String, ColumnarError> {
    let len = get_u32(buf)? as usize;
    if buf.len() < len {
        return Err(truncated());
    }
    let (head, tail) = buf.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| ColumnarError::Snapshot("invalid UTF-8".into()))?
        .to_owned();
    *buf = tail;
    Ok(s)
}

fn truncated() -> ColumnarError {
    ColumnarError::Snapshot("truncated input".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetBuilder;

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
        let schema = Schema::new(vec![
            Field::new("narrow", 256),
            Field::new("mid", 70_000 - 30_000), // u16
            Field::new("wide", 70_000),         // u32
        ]);
        let rows = shift..shift + 3000;
        let cols = vec![
            Column::new(rows.clone().map(|i| i % 256).collect(), 256).unwrap(),
            Column::new(rows.clone().map(|i| (i * 13) % 40_000).collect(), 40_000).unwrap(),
            Column::new(rows.map(|i| (i * 23) % 70_000).collect(), 70_000).unwrap(),
        ];
        Dataset::new(schema, cols).unwrap()
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
    fn v1_round_trips_into_u32_packed_columns() {
        let ds = tri_width();
        let bytes = encode_v1(&ds);
        let back = decode(&bytes).unwrap();
        // Logical equality holds even though v1 forgets widths…
        assert_eq!(back, ds);
        // …and every column materializes as u32 (v1 has no width tags).
        for attr in 0..back.num_attrs() {
            assert_eq!(back.column(attr).width(), Width::U32, "attr {attr}");
        }
        // Dictionaries survive the v1 path too.
        let dict_ds = sample();
        let back = decode(&encode_v1(&dict_ds)).unwrap();
        assert_eq!(back, dict_ds);
        assert!(back.schema().field(0).unwrap().dictionary().is_some());
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
        let mut bytes = encode(&sample()).to_vec();
        bytes[4] = 99;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation_at_every_prefix_boundary() {
        // Every strict prefix of a valid buffer crosses the header, the
        // section table, or some section mid-payload; decode must return
        // an error at all of them — never panic, never accept a shorter
        // dataset. (Covers the section-table boundaries in particular:
        // with 4 sections the table spans bytes 12..108 — and every cut
        // inside the trailing sketch section, satisfying the
        // truncated-sketch boundary requirement.)
        let bytes = encode(&sample()).to_vec();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
        // Same property for the legacy format.
        let v1 = encode_v1(&sample());
        for cut in 0..v1.len() {
            assert!(decode(&v1[..cut]).is_err(), "v1 cut at {cut} should fail");
        }
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        // Flip every byte in turn: decode may reject or (for bytes that
        // don't affect meaning, like the reserved flags) accept, but it
        // must always return rather than panic or over-allocate.
        let bytes = encode(&sample()).to_vec();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xff;
            let _ = decode(&corrupt);
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
            let (back, sketch) = decode_with_sketch(&encode(&ds)).unwrap();
            assert_eq!(back, ds);
            assert_eq!(sketch.expect("writer always emits a sketch"), build_sketch(&ds));
        }
    }

    #[test]
    fn pre_sketch_v2_snapshot_reads_with_none() {
        let ds = tri_width();
        let stripped = strip_sketch(&encode(&ds));
        let (back, sketch) = decode_with_sketch(&stripped).unwrap();
        assert_eq!(back, ds);
        assert!(sketch.is_none(), "pre-sketch v2 files must degrade gracefully");
        // The plain reader sees the same dataset.
        assert_eq!(decode(&stripped).unwrap(), ds);
    }

    #[test]
    fn sketch_corruption_is_a_one_line_error() {
        let ds = tri_width();
        let bytes = encode(&ds);
        let (sketch_off, sketch_len) = last_section(&bytes);
        // Flip every byte of the sketch section in turn: the reader
        // must reject (CRC guards the payload; the length/kind checks
        // guard a forged CRC) with an error naming the sketch — and the
        // plain dataset path must reject too, not silently drop it.
        for i in sketch_off..sketch_off + sketch_len {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xff;
            let err = decode_with_sketch(&corrupt).unwrap_err();
            assert!(err.to_string().contains("sketch"), "byte {i}: {err}");
            assert!(decode(&corrupt).is_err(), "byte {i}");
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
        let out = with_sketch(&encode(&ds), &DatasetSketch::build(0, std::iter::empty()));
        let err = decode_with_sketch(&out).unwrap_err();
        assert!(err.to_string().contains("sketch covers"), "{err}");
    }

    #[test]
    fn same_shape_sketch_over_other_supports_is_rejected() {
        // A CRC-valid sketch of the right rows x columns whose first
        // column is sketched over a wider support than the schema's: it
        // would index past every counter sized from the schema, so the
        // snapshot must not load — heap or paged — and must say why.
        let ds = sample();
        let wider: Vec<PackedColumn> = (0..ds.num_attrs())
            .map(|a| {
                let bump = if a == 0 { 5 } else { 0 };
                PackedColumn::new(ds.column(a).to_codes(), ds.support(a) + bump).unwrap()
            })
            .collect();
        let out = with_sketch(&encode(&ds), &DatasetSketch::build(ds.num_rows(), wider.iter()));
        for err in [decode_with_sketch(&out).unwrap_err(), decode(&out).unwrap_err()] {
            let msg = err.to_string();
            assert!(msg.contains("sketch section: column 0"), "{msg}");
            assert!(!msg.contains('\n'), "{msg}");
        }
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
        // First byte of the first field name: header (12) + table
        // (4 sections × 24) + h (4) + n (8) + name_len (4).
        let name_at = 12 + 4 * 24 + 4 + 8 + 4;
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
        // The first field's has_dict flag: header + table + h + n +
        // (name_len + name) + support.
        let name_len = ds.schema().field(0).unwrap().name().len();
        let flag_at = 12 + 4 * 24 + 4 + 8 + 4 + name_len + 4;
        assert_eq!(bytes[flag_at], 1, "offset arithmetic drifted");
        bytes[flag_at] = 2;
        // Re-seal the schema CRC so the flag check itself is reached.
        let schema_len_at = 12 + 16; // first section entry's len field
        let len = u64::from_le_bytes(bytes[schema_len_at..schema_len_at + 8].try_into().unwrap())
            as usize;
        let body_start = 12 + 4 * 24;
        let crc = crc32(&bytes[body_start..body_start + len - 4]);
        bytes[body_start + len - 4..body_start + len].copy_from_slice(&crc.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("dictionary flag"), "{err}");
    }

    #[test]
    fn rejects_dictionary_support_mismatch() {
        // Hand-assemble a *v1* snapshot (that path has no CRC to
        // re-seal) whose dictionary has fewer values than the declared
        // support: h=1, n=0, field "a" with support 2 but a one-entry
        // dictionary.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&V1.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // h
        bytes.extend_from_slice(&0u64.to_le_bytes()); // n
        put_str(&mut bytes, "a");
        bytes.extend_from_slice(&2u32.to_le_bytes()); // support
        bytes.push(1); // has_dict
        bytes.extend_from_slice(&1u32.to_le_bytes()); // dict count
        put_str(&mut bytes, "x");
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn rejects_non_utf8_field_name() {
        let ds = sample();
        let mut bytes = encode(&ds);
        // Corrupt the first field-name byte and re-seal the schema CRC
        // so the UTF-8 check (not the checksum) is what rejects it.
        let name_at = 12 + 4 * 24 + 4 + 8 + 4;
        bytes[name_at] = 0xff;
        let schema_len_at = 12 + 16;
        let len = u64::from_le_bytes(bytes[schema_len_at..schema_len_at + 8].try_into().unwrap())
            as usize;
        let body_start = 12 + 4 * 24;
        let crc = crc32(&bytes[body_start..body_start + len - 4]);
        bytes[body_start + len - 4..body_start + len].copy_from_slice(&crc.to_le_bytes());
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn rejects_oversized_declared_sizes_without_allocating() {
        // Headers declaring astronomically many sections/rows/attrs must
        // fail the up-front size checks instead of attempting the
        // allocation — in both formats.
        let mut v2 = Vec::new();
        v2.extend_from_slice(MAGIC);
        v2.extend_from_slice(&VERSION.to_le_bytes());
        v2.extend_from_slice(&0u16.to_le_bytes());
        v2.extend_from_slice(&u32::MAX.to_le_bytes()); // section_count
        assert!(decode(&v2).is_err());

        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&V1.to_le_bytes());
        v1.extend_from_slice(&0u16.to_le_bytes());
        v1.extend_from_slice(&u32::MAX.to_le_bytes()); // h
        v1.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        assert!(decode(&v1).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode(&sample()).to_vec();
        bytes.push(0);
        assert!(decode(&bytes).is_err());
        let mut v1 = encode_v1(&sample());
        v1.push(0);
        assert!(decode(&v1).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("swope-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.swop");
        let ds = sample();
        write_file(&ds, &path).unwrap();
        let back = read_file(&path).unwrap();
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
        assert_eq!(read_file(&path).unwrap(), new);
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
    fn open_paged_falls_back_to_heap_for_v1() {
        let ds = tri_width();
        let dir = std::env::temp_dir().join("swope-snapshot-paged-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.swop");
        std::fs::write(&path, encode_v1(&ds)).unwrap();
        let (back, sketch) = open_paged(&path, Arc::new(PageCache::unbounded())).unwrap();
        assert!(!back.column(0).is_paged(), "v1 has no paged form");
        assert!(sketch.is_none());
        assert_eq!(back, ds);
        std::fs::remove_file(&path).ok();
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
        assert!(read_file(&path).is_err());
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
}
