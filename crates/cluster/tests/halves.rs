//! Halves over real loopback TCP, in the union's frame and out of it. A
//! `swope split` half keeps the union's layout (snapshot v4), so each
//! window a coordinator sends is a run its peer counts in place. A half
//! laid out as a dataset of its own — a v3 half, or halves served in
//! another order than they were cut in — is counted through a mapped
//! slot table: slower, and just as exact. Either way the coordinator
//! answers with the single box's bytes.

#[path = "../../core/tests/common/mod.rs"]
mod common;
#[path = "../../columnar/tests/support/snapshot_v3.rs"]
mod snapshot_v3;

use std::net::TcpListener;
use std::sync::Arc;

use common::{plain, scoped};
use swope_cluster::coordinator::{PeerTimeouts, RemoteShardSource};
use swope_cluster::peer::{serve_connection, PeerDataset};
use swope_cluster::stats::ClusterStats;
use swope_columnar::{snapshot, Dataset};
use swope_core::{run_sharded, Executor, NoopObserver, Rule, Scope, Shape, SwopeConfig};
use swope_store::page::PAGE_ROWS;

/// A peer serving `ds` on a fresh loopback port, booking every session
/// into the returned stats. The listener thread leaks (it blocks in
/// accept) — harmless for a test process.
fn spawn_peer(ds: Dataset) -> (String, Arc<ClusterStats>) {
    let served = PeerDataset { dataset: Arc::new(ds), sketch: None };
    let stats = Arc::new(ClusterStats::new());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let booked = Arc::clone(&stats);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let (served, stats) = (served.clone(), Arc::clone(&booked));
            std::thread::spawn(move || {
                let resolve = move |_: &str| Some(served.clone());
                serve_connection(&mut stream, &resolve, &stats);
            });
        }
    });
    (addr, stats)
}

/// The union cut inside page 1, past page 0, into two halves as `swope
/// split` cuts them.
fn halves() -> (Dataset, [Dataset; 2]) {
    let union = swope_datagen::generate(&swope_datagen::corpus::tiny(2 * PAGE_ROWS + 9_000, 4), 5);
    let (n, cut) = (union.num_rows(), PAGE_ROWS + 4_321);
    let head = union.take_rows(&(0..cut).collect::<Vec<_>>());
    let tail = union.take_rows(&(cut..n).collect::<Vec<_>>());
    (union, [head, tail])
}

/// `shape` over `scope` of the union the peers at `addrs` hold, through
/// a coordinator.
fn wire(
    addrs: &[String],
    shape: &Shape,
    scope: &Scope,
    config: &SwopeConfig,
) -> swope_core::Answer {
    let range = scope.row_start.map(|start| start as u64..scope.row_end.unwrap() as u64);
    let stats = Arc::new(ClusterStats::new());
    let timeouts = PeerTimeouts::default();
    let mut src =
        RemoteShardSource::connect(addrs, "t", config.seed, range, &timeouts, stats, None).unwrap();
    let answer = run_sharded(&mut src, shape, config, &mut NoopObserver, &Executor::sequential());
    src.finish();
    answer.unwrap()
}

fn shapes() -> [Shape; 2] {
    [Shape::entropy(Rule::TopK { k: 2 }), Shape::mi(0, Rule::TopK { k: 2 })]
}

/// Halves in the union's frame, read back from their v4 snapshots: the
/// single box's bytes, every unscoped window counted as a run, and only
/// a range's fringe slots one by one.
#[test]
fn halves_in_the_unions_frame_count_every_unscoped_window_as_a_run() {
    let (union, halves) = halves();
    let config = SwopeConfig::with_epsilon(0.15).with_seed(0xF4A3);
    let peers: Vec<_> = halves
        .iter()
        .map(|half| {
            let bytes = snapshot::encode(half);
            assert_eq!(bytes[4..6], snapshot::SLICE_VERSION.to_le_bytes());
            spawn_peer(snapshot::decode(&bytes).unwrap())
        })
        .collect();
    let addrs: Vec<String> = peers.iter().map(|(addr, _)| addr.clone()).collect();
    for shape in shapes() {
        assert_eq!(wire(&addrs, &shape, &Scope::all(), &config), plain(&union, &shape, &config));
    }
    for (_, stats) in &peers {
        let snap = stats.snapshot();
        assert!(snap.peer_run_positions > 0 && snap.peer_list_positions == 0, "{snap:?}");
    }
    let range = Scope::range(PAGE_ROWS - 2_000, 2 * PAGE_ROWS + 3_000);
    for shape in shapes() {
        let want = scoped(&union, &shape, &range, None, &config);
        assert_eq!(wire(&addrs, &shape, &range, &config), want, "{shape:?} over {range:?}");
    }
    assert!(peers.iter().any(|(_, stats)| stats.snapshot().peer_list_positions > 0));
}

/// Halves in their own layout (v3), and halves served in the other
/// order: each peer maps the union's windows through its slot table and
/// counts a list, and the coordinator still answers with the bytes of a
/// single box holding the union it was given.
#[test]
fn halves_in_their_own_layout_answer_through_the_mapped_table() {
    let (union, [head, tail]) = halves();
    let config = SwopeConfig::with_epsilon(0.15).with_seed(0x3A3D);
    let v3 = |half: &Dataset| {
        let ds = snapshot::decode(&snapshot_v3::v3_of(half)).unwrap();
        assert_eq!(ds.frame(), (half.num_rows(), 0), "a dataset of its own");
        ds
    };
    let own: Vec<_> = [&head, &tail].map(|half| spawn_peer(v3(half))).into();
    let swapped: Vec<_> = [&tail, &head].map(|half| spawn_peer(half.clone())).into();
    let swapped_union = tail.concat(&head).unwrap();
    for (peers, union) in [(&own, &union), (&swapped, &swapped_union)] {
        let addrs: Vec<String> = peers.iter().map(|(addr, _)| addr.clone()).collect();
        for shape in shapes() {
            let want = plain(union, &shape, &config);
            assert_eq!(wire(&addrs, &shape, &Scope::all(), &config), want, "{shape:?}");
        }
        // The second peer's pages all lie past a cut of another layout.
        assert!(peers[1].1.snapshot().peer_list_positions > 0);
    }
}
