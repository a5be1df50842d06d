//! Sliding windows over a churning edge stream, rolled with persisted
//! ℓ₀-sketches.
//!
//! The paper motivates the turnstile model with streams "split into
//! multiple substreams that cannot be joined for privacy reasons" and
//! general insert/delete churn. This demo adds the durability angle:
//! every sketch the turnstile executor keeps is a **linear** function of
//! the update vector, so a *persisted* prefix sketch is subtractable —
//! restore the snapshot taken at the window start, `negate()` it, and
//! `merge()` it into the current sketch, and the prefix cancels exactly.
//! No rescan of the stream, no per-window state kept while streaming:
//! one running sketch plus one serialized snapshot per boundary
//! (the same framed, checksummed records the checkpoint WAL uses).
//!
//! The demo maintains a bank of edge-domain ℓ₀-samplers over a timeline
//! of churn epochs, shelves a snapshot at every boundary, then answers
//! "which edges changed during window [s, e)?" by sketch subtraction —
//! and proves each rolled window agrees sample-for-sample with a sketch
//! built fresh from only that window's updates.
//!
//! ```sh
//! cargo run --release --example turnstile_windows
//! ```

use sgs_prng::FastRng;
use sgs_stream::l0::L0Sampler;
use sgs_stream::EdgeUpdate;
use std::collections::BTreeSet;
use subgraph_streams::prelude::*;

const N: usize = 60;
const EPOCHS: usize = 12;
const WINDOW: usize = 4;
const REPS: usize = 6;

fn main() {
    // ----- A churning timeline: each epoch deletes ~1/3 of the live
    // edges and inserts a batch of fresh ones. ------------------------
    let mut rng = FastRng::seed_from_u64(21);
    let mut present: BTreeSet<u64> = BTreeSet::new();
    let mut epochs: Vec<Vec<EdgeUpdate>> = Vec::new();
    // Exact edge set at each epoch boundary, for verification.
    let mut boundary_sets: Vec<BTreeSet<u64>> = vec![present.clone()];
    for _ in 0..EPOCHS {
        let mut ups = Vec::new();
        let victims: Vec<u64> = present
            .iter()
            .copied()
            .filter(|_| rng.next_u64().is_multiple_of(3))
            .collect();
        for k in victims {
            present.remove(&k);
            ups.push(EdgeUpdate::delete(Edge::from_key(k)));
        }
        for _ in 0..40 {
            let a = (rng.next_u64() % N as u64) as u32;
            let b = (rng.next_u64() % N as u64) as u32;
            if a == b {
                continue;
            }
            let e = Edge::new(VertexId(a.min(b)), VertexId(a.max(b)));
            if present.insert(e.key()) {
                ups.push(EdgeUpdate::insert(e));
            }
        }
        epochs.push(ups);
        boundary_sets.push(present.clone());
    }

    // ----- Stream once, shelving a serialized snapshot of the sketch
    // bank at every epoch boundary. ------------------------------------
    let mut bank: Vec<L0Sampler> = (0..REPS)
        .map(|i| L0Sampler::for_edge_domain(N, 100 + i as u64))
        .collect();
    let mut shelf: Vec<Vec<Vec<u8>>> = vec![bank.iter().map(|s| s.to_persist_bytes()).collect()];
    for ep in &epochs {
        for u in ep {
            for s in &mut bank {
                s.update(u.edge.key(), i64::from(u.delta));
            }
        }
        shelf.push(bank.iter().map(|s| s.to_persist_bytes()).collect());
    }
    let snapshot_bytes: usize = shelf[EPOCHS].iter().map(Vec::len).sum();
    println!(
        "{EPOCHS} epochs streamed; one {REPS}-sampler snapshot per boundary \
         ({snapshot_bytes} bytes each)\n"
    );

    // ----- Roll sliding windows by subtracting persisted prefixes. ----
    for start in (0..=EPOCHS - WINDOW).step_by(2) {
        let end = start + WINDOW;
        // Restore the window-end snapshot, then cancel everything before
        // the window: restore the start snapshot, negate, merge.
        let window: Vec<L0Sampler> = (0..REPS)
            .map(|i| {
                let mut w = L0Sampler::from_persist_bytes(&shelf[end][i]).unwrap();
                let mut s0 = L0Sampler::from_persist_bytes(&shelf[start][i]).unwrap();
                s0.negate();
                w.merge(&s0);
                w
            })
            .collect();
        // The ground truth the subtraction must reproduce: sketches fed
        // *only* the window's updates.
        let direct: Vec<L0Sampler> = (0..REPS)
            .map(|i| {
                let mut d = L0Sampler::for_edge_domain(N, 100 + i as u64);
                for ep in &epochs[start..end] {
                    for u in ep {
                        d.update(u.edge.key(), i64::from(u.delta));
                    }
                }
                d
            })
            .collect();
        for (w, d) in window.iter().zip(&direct) {
            assert_eq!(
                w.sample(),
                d.sample(),
                "sketch subtraction must cancel the prefix exactly"
            );
        }
        // The window sketch's support is the symmetric difference of the
        // boundary graphs: every sampled edge genuinely changed.
        let changed: BTreeSet<u64> = boundary_sets[start]
            .symmetric_difference(&boundary_sets[end])
            .copied()
            .collect();
        let mut sampled: BTreeSet<u64> = BTreeSet::new();
        for w in &window {
            if let Some(k) = w.sample() {
                assert!(changed.contains(&k), "sampled an edge that did not change");
                sampled.insert(k);
            }
        }
        let shown: Vec<String> = sampled
            .iter()
            .map(|&k| {
                let e = Edge::from_key(k);
                format!("{}–{}", e.u(), e.v())
            })
            .collect();
        println!(
            "window [{start:>2}, {end:>2}): {:>3} edges changed; \
             ℓ₀-samples drew {}",
            changed.len(),
            shown.join(", "),
        );
    }

    // ----- And the counting side still works on the full turnstile
    // stream: the estimator tracks the final graph through all churn. --
    let all: Vec<EdgeUpdate> = epochs.concat();
    let deletions = all.iter().filter(|u| !u.is_insert()).count();
    let stream = TurnstileStream::from_updates(N, all);
    let est = estimate_stream(
        &Pattern::triangle(),
        RouterMode::Turnstile,
        &stream,
        15_000,
        23,
    )
    .unwrap();
    let pairs: Vec<(u32, u32)> = present
        .iter()
        .map(|&k| {
            let e = Edge::from_key(k);
            (e.u().0, e.v().0)
        })
        .collect();
    let final_graph = AdjListGraph::from_pairs(N, pairs);
    let exact = sgs_graph::exact::triangles::count_triangles(&final_graph);
    println!(
        "\nfull stream: {} updates ({deletions} deletions) -> triangle \
         estimate {:.1} vs exact {exact} ({} passes)",
        stream.len(),
        est.estimate,
        est.report.passes,
    );
    assert!(est.report.passes <= 3);
}
