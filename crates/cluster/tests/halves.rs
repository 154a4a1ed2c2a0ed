//! Halves over real loopback TCP. A `swope split` half keeps the union's
//! layout (snapshot v4) and names its frame in its `Hello`. Halves that
//! tile their union answer with the single box's bytes, every window a
//! run their peers count in place; a half alone answers as the half
//! itself does, which samples where it stores its rows. Halves that do
//! not tile one frame — v3 halves, laid out as datasets of their own, or
//! halves listed in another order than they were cut in — are refused at
//! `Hello`, in one line that names the peer and `swope split`.

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

/// Each half alone, read back from its v4 snapshot, answers through a
/// one-peer coordinator as the half does on its own, over the whole half
/// and over a range: the coordinator draws in the half's frame, where
/// the half samples its rows. Unscoped, its peer counts every window as
/// a run, on the page the half shares with the other one too.
#[test]
fn a_half_answers_as_a_one_peer_coordinator_over_it() {
    let (_, halves) = halves();
    let config = SwopeConfig::with_epsilon(0.15).with_seed(0x0E4A);
    for half in &halves {
        let (addr, stats) = spawn_peer(snapshot::decode(&snapshot::encode(half)).unwrap());
        let n = half.num_rows();
        for scope in [Scope::all(), Scope::range(1_000, n - 2_000)] {
            for shape in shapes() {
                let want = scoped(half, &shape, &scope, None, &config);
                let got = wire(std::slice::from_ref(&addr), &shape, &scope, &config);
                assert_eq!(got, want, "{shape:?} over {scope:?} of {:?}", half.frame());
            }
            if scope == Scope::all() {
                let snap = stats.snapshot();
                assert!(snap.peer_run_positions > 0 && snap.peer_list_positions == 0, "{snap:?}");
            }
        }
    }
}

/// The one-line error a coordinator over the peers at `addrs` refuses
/// to connect with.
fn refusal(addrs: &[String]) -> String {
    let timeouts = PeerTimeouts::default();
    let stats = Arc::new(ClusterStats::new());
    match RemoteShardSource::connect(addrs, "t", 1, None, &timeouts, stats, None) {
        Ok(_) => panic!("{addrs:?} connected"),
        Err(e) => e.to_string(),
    }
}

/// Halves in their own layout (v3), each a table of its own, and halves
/// served in the other order than they were cut in do not tile one
/// frame: the coordinator refuses each fleet at `Hello`, in one line
/// that names the peer out of place and says to `swope split` the union
/// again.
#[test]
fn halves_out_of_their_frame_are_refused_at_hello() {
    let (_, [head, tail]) = halves();
    let v3 = |half: &Dataset| {
        let ds = snapshot::decode(&snapshot_v3::v3_of(half)).unwrap();
        assert_eq!(ds.frame(), (half.num_rows(), 0), "a dataset of its own");
        ds
    };
    let own = [&head, &tail].map(|half| spawn_peer(v3(half)).0);
    let swapped = [&tail, &head].map(|half| spawn_peer(half.clone()).0);
    for addrs in [own, swapped] {
        let msg = refusal(&addrs);
        assert!(msg.starts_with(&format!("shard transport error: peer {}: ", addrs[1])), "{msg}");
        assert!(msg.contains("`swope split` the union again"), "{msg}");
        assert!(!msg.contains('\n'), "{msg}");
    }
}
