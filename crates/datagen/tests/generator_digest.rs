//! Pinned generator output: `generate` folded into a 64-bit digest per
//! (profile, seed) and compared with a constant.
//!
//! Every figure in `results/` and every benchmark snapshot is built by
//! [`swope_datagen::generate`], so its bytes are part of the contract: a
//! change to the RNG streams, the latent draws or a column's sampler
//! moves every downstream number. A digest covers the row and attribute
//! counts, every field name and support, and every code of every column.
//!
//! A mismatch means the generator's output moved. Re-record (the failure
//! prints the table) only for a change that is *meant* to move it.

use swope_columnar::Dataset;
use swope_datagen::{corpus, generate, DatasetProfile};

const SEEDS: [u64; 3] = [1, 0x5170, 0xC1057E4];

/// Small enough that all four profiles generate in well under a second.
const SCALE: f64 = 0.0002;

/// `PINNED[profile][seed]` for [`profiles`] × [`SEEDS`], recorded at
/// d4f7d44, while `generate` still delegated to a run-length generator
/// with runs of one row.
#[rustfmt::skip]
const PINNED: [[u64; 3]; 5] = [
    [0x601b4fa11f8505bc, 0xf45a4dcfa401c5f5, 0xb3ef33cb5e66ade5],
    [0x02eae054c138a9c4, 0xc531a9ce0a15556c, 0x8105cb8f460d93d5],
    [0x5a39c2dacd88d4ae, 0x103e8fed14eedf5a, 0x8fb805ef37e50caf],
    [0x855b1e62ddedbd04, 0xc75a7af485e69868, 0xfd3d833c4045bb47],
    [0x42e055f794eb7e9e, 0x16c65ceee00ad527, 0x2e1317957893a7d3],
];

fn profiles() -> [DatasetProfile; 5] {
    [
        corpus::tiny(4_000, 6),
        corpus::cdc(SCALE),
        corpus::hus(SCALE),
        corpus::pus(SCALE),
        corpus::enem(SCALE),
    ]
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn digest(ds: &Dataset) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.word(ds.num_rows() as u64);
    h.word(ds.num_attrs() as u64);
    for field in ds.schema().fields() {
        h.word(field.name().len() as u64);
        for b in field.name().bytes() {
            h.word(b as u64);
        }
        h.word(field.support() as u64);
    }
    for attr in 0..ds.num_attrs() {
        for code in ds.column(attr).to_codes() {
            h.word(code as u64);
        }
    }
    h.0
}

#[test]
fn generate_output_is_pinned() {
    let got: Vec<[u64; 3]> =
        profiles().iter().map(|p| SEEDS.map(|seed| digest(&generate(p, seed)))).collect();
    let table: String = got
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            format!("    [{}],\n", cells.join(", "))
        })
        .collect();
    assert_eq!(got, PINNED, "generator output moved; recorded table:\n{table}");
}
