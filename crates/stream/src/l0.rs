//! ℓ₀-samplers for turnstile streams (Lemma 7).
//!
//! An ℓ₀-sampler summarizes a vector undergoing additive updates and, on
//! query, returns a (near-)uniform element of its support. Theorem 11 uses
//! one sampler per `f1` query (over the edge domain) and per `f3` query
//! (over the adjacency list of one vertex).
//!
//! The construction follows the unifying framework of Cormode & Firmani
//! (Lemma 7's citation): a hierarchy of geometrically subsampled levels,
//! each summarized by a 1-sparse detector (count, key-sum, random-linear
//! fingerprint). Recovery walks from the deepest level up and returns the
//! unique survivor of the first exactly-1-sparse level; by symmetry of the
//! hash, that survivor is uniform over the support. A repetition fails when
//! the maximal subsampling level holds a tie, so the sampler keeps `R`
//! independent repetitions; empirical failure rates and uniformity are
//! measured by experiment E3.
//!
//! Space: `R · (max_level + 1)` detectors of 4 words each — the concrete
//! counterpart of Lemma 7's `O(log⁴ n)` bits (we keep the `log` levels and
//! replace the remaining union-bound machinery with repetitions; the
//! *interface contract* — uniform support element or explicit failure — is
//! what downstream algorithms rely on).
//!
//! Three engineering properties the sharded / blocked pipeline leans on:
//!
//! * **Shared geometric draw** — one base hash per update feeds the whole
//!   repetition bank: each repetition derives its level and fingerprint
//!   from the shared draw with one SplitMix64 remix each (full avalanche,
//!   so per-repetition level assignments stay decorrelated), instead of
//!   two independent double-hashes per repetition. Turnstile passes are
//!   dominated by exactly this loop (perfbench `count-turnstile`: the
//!   round-1 pass `query.pass.ms.r1` is nearly all of a solo run, read per
//!   sampler-update as `stream.l0.ns_per_f1_update`), so the bank
//!   bottleneck drops from `4R` to `2 + 2R` SplitMix64 steps per update.
//!   The `shared_draw_distribution_matches_independent_draws` test pins
//!   the output distribution and failure rate against the independent
//!   per-repetition scheme it replaced.
//! * **Struct-of-arrays bank** — the detectors live in three contiguous
//!   *planes* (`count`, `key_sum`, `fingerprint`), level-major, so all
//!   `R` detectors of one level are adjacent in memory. An update becomes
//!   a handful of lane loops over repetitions (level remix, fingerprint
//!   remix, then one predicated add per plane per touched level) that the
//!   stable-Rust autovectorizer turns into SIMD; the old
//!   `Vec<Repetition>` array-of-structs walked a branchy per-repetition
//!   inner loop over scattered level vectors. The
//!   `soa_bank_is_bit_identical_to_aos_bank` test pins the new layout
//!   against a replica of the old one detector for detector.
//! * **Survivor-level dispatch** — the shared draw fixes, per (update,
//!   repetition), the deepest level ℓ the update survives into, and
//!   `P[ℓ ≥ l] = 2^-l` makes the expected touched prefix ~2 rows of
//!   L ≈ 16. The default feed path ([`L0Mode::Dispatch`]) therefore
//!   walks only rows `0..=ℓ` per repetition instead of predicating
//!   through the whole bank, and the blocked variant counting-sorts
//!   each prehashed block into per-level cohorts so every detector row
//!   takes one accumulated add per block. The predicated scan stays as
//!   the bit-identity oracle ([`L0Mode::Predicated`]); the three-way
//!   pin in `soa_bank_is_bit_identical_to_aos_bank` holds all paths to
//!   the same detector bits.
//! * **Bank-wide feed** — a turnstile pass's `f1` bank is hundreds of
//!   samplers that all absorb every update. [`BankFeed`] does the
//!   sampler-independent work of each chunk (the unkeyed half of the base
//!   hash, the key·delta split, the row-0 totals) once for the bank, then
//!   sweeps samplers outer per [`BANK_SUPER_BLOCK`] so each sampler's
//!   planes stay in cache. The sweep body is compiled twice, portable and
//!   with AVX-512, and the CPU picks the copy at run time. A sweep may
//!   also be split into contiguous sampler ranges on scoped threads, up
//!   to the caller's thread budget; the calling thread builds every
//!   prologue and takes the first range, and the helpers only read it.
//!   A split needs every part to get at least 65,536 sampler-updates
//!   (1.8–2.5 ms of one-thread sweep, against 24 µs for one scoped
//!   spawn + join on a 2-vCPU AVX-512 Xeon), so small banks stay on
//!   one thread, and so do short feed calls unless the bank is large;
//!   `bank_feed_is_bit_identical_across_kernels_and_per_sampler_paths`
//!   pins both copies, whole and split into 2, 3 and 7 parts, to
//!   per-sampler dispatch and the predicated oracle.
//! * **Linearity** — every detector field is additive, so
//!   [`L0Sampler::merge`] of identically-seeded samplers that absorbed
//!   disjoint update subsets is *bit-identical* to one sampler that
//!   absorbed them all: per-shard sketch banks merge exactly, and
//!   [`L0Sampler::update_batch`] may apply a block of updates sampler-hot
//!   without changing a single output bit (addition commutes).

use crate::hash::{split_seed, splitmix64, SeededHash};
use crate::persist::{frame, read_frame_of, Decoder, Encoder, PersistResult, KIND_L0};
use crate::space::SpaceUsage;

/// Which feed path an ℓ₀ bank consumer drives.
///
/// Both paths produce bit-identical detector planes for any update
/// sequence (every plane field is a commutative wrapping sum), so the
/// knob trades instruction mix, not answers:
///
/// * [`L0Mode::Predicated`] — the PR 3 path: every update visits every
///   level row up to the bank's deepest draw, masking inactive lanes
///   with a sign-extended AND. Wide, branch-free, autovectorizes; kept
///   as the bit-identity oracle.
/// * [`L0Mode::Dispatch`] — survivor-level dispatch: the shared base
///   draw already fixes, per (update, repetition), the deepest level ℓ
///   the update belongs to (`P[survive to ℓ] = 2^-ℓ`, so `E[ℓ] ≈ 2`
///   rows of L ≈ 16). The bank walks only rows `0..=ℓ` unconditionally;
///   blocked feeds additionally counting-sort each prehashed block into
///   per-level cohorts so each detector row takes **one** accumulated
///   add per block instead of one per update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum L0Mode {
    /// Full-bank predicated lane scan (the pre-dispatch oracle path).
    Predicated,
    /// Survivor-level dispatch with block-level level-cohort slicing.
    #[default]
    Dispatch,
}

impl L0Mode {
    /// Stable lowercase name (CLI flags, bench labels).
    pub fn as_str(self) -> &'static str {
        match self {
            L0Mode::Predicated => "predicated",
            L0Mode::Dispatch => "dispatch",
        }
    }

    /// Parse a CLI-style name; inverse of [`L0Mode::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "predicated" => Some(L0Mode::Predicated),
            "dispatch" => Some(L0Mode::Dispatch),
            _ => None,
        }
    }
}

/// A turnstile ℓ₀-sampler over `u64` keys.
///
/// Detector state is stored as a struct-of-arrays bank: three planes
/// indexed by `(level, repetition)` with repetition minor, so the
/// per-update lane loops run over contiguous memory.
#[derive(Clone, Debug)]
pub struct L0Sampler {
    /// Shared per-update draw feeding every repetition.
    base_hash: SeededHash,
    /// The construction seed, retained so [`L0Sampler::merge`] can verify
    /// both banks share one hash family.
    seed: u64,
    /// Number of repetitions `R` (the lane count).
    reps: usize,
    /// Levels per repetition (`max_level + 1`).
    levels: usize,
    /// Per-repetition level-draw salts, one lane each.
    level_salt: Vec<u64>,
    /// Per-repetition fingerprint salts, one lane each.
    fp_salt: Vec<u64>,
    /// Detector plane: net weight, `[level * reps + rep]`.
    count: Vec<i64>,
    /// Detector planes: `Σ key · delta`, an exact 128-bit two's-complement
    /// accumulator split into low/high 64-bit halves with explicit carry —
    /// bit-identical to an `i128` add, but every lane op is 64-bit so the
    /// plane vectorizes like the others (a scalar `i128` plane pinned the
    /// whole level row to scalar code).
    key_sum_lo: Vec<u64>,
    key_sum_hi: Vec<u64>,
    /// Detector plane: `Σ fp(key) · delta` over `Z/2^64`.
    fingerprint: Vec<u64>,
    /// Per-update lane scratch: this update's level draw per repetition.
    lvl_scratch: Vec<u32>,
    /// Per-update lane scratch: this update's fingerprint per repetition.
    fp_scratch: Vec<u64>,
    /// Dispatch-block scratch, one slot per level: this block's cohort
    /// sums for the repetition being drained (net delta, split 128-bit
    /// key·delta, fingerprint delta). Derived state — zeroed between
    /// uses, never persisted.
    coh_count: Vec<i64>,
    coh_kd_lo: Vec<u64>,
    coh_kd_hi: Vec<u64>,
    coh_fp: Vec<u64>,
    updates_absorbed: u64,
}

/// Default number of independent repetitions.
pub const DEFAULT_REPS: usize = 8;

/// Updates sharing one cohort drain on the dispatch batch path. The
/// drain walks `(deepest+1)·reps` detector rows per chunk, so the
/// per-update drain cost falls roughly linearly in the chunk width;
/// 128 keeps the per-chunk lane and prologue arrays small while putting
/// the drain near one row-add per update.
pub const DISPATCH_CHUNK: usize = 128;

impl L0Sampler {
    /// Create a sampler with `reps` repetitions and `max_level + 1`
    /// subsampling levels. `max_level` should be at least
    /// `log2(support size)`; 40 comfortably covers every workload here.
    pub fn new(max_level: u32, reps: usize, seed: u64) -> Self {
        assert!(reps >= 1);
        let levels = max_level as usize + 1;
        let (mut level_salt, mut fp_salt) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        for i in 0..reps {
            // Identical salt derivation to the old per-`Repetition`
            // construction: the SoA re-layout moves bytes, not coins.
            let rep_seed = split_seed(seed, 100 + i as u64);
            level_salt.push(split_seed(rep_seed, 0));
            fp_salt.push(split_seed(rep_seed, 1));
        }
        L0Sampler {
            base_hash: SeededHash::new(split_seed(seed, 99)),
            seed,
            reps,
            levels,
            level_salt,
            fp_salt,
            count: vec![0; levels * reps],
            key_sum_lo: vec![0; levels * reps],
            key_sum_hi: vec![0; levels * reps],
            fingerprint: vec![0; levels * reps],
            lvl_scratch: vec![0; reps],
            fp_scratch: vec![0; reps],
            coh_count: vec![0; levels],
            coh_kd_lo: vec![0; levels],
            coh_kd_hi: vec![0; levels],
            coh_fp: vec![0; levels],
            updates_absorbed: 0,
        }
    }

    /// Sampler sized for a graph on `n` vertices over the edge domain
    /// (`Edge::key()` keys), with default repetitions.
    pub fn for_edge_domain(n: usize, seed: u64) -> Self {
        let bits = (n.max(2) as f64).log2().ceil() as u32;
        Self::new((2 * bits + 4).min(62), DEFAULT_REPS, seed)
    }

    /// Number of repetitions.
    #[inline]
    pub fn num_reps(&self) -> usize {
        self.reps
    }

    /// Absorb one update whose shared base draw is already computed.
    ///
    /// The body is lane loops over repetitions: one SplitMix64 remix per
    /// lane for the level draw, one for the per-lane fingerprint delta
    /// `delta · fp(key)` (hoisted — the old layout recomputed the product
    /// on every level), then plane-row adds. Level 0 holds every key, so
    /// its row is three unconditional lane adds; deeper rows predicate
    /// each lane with a sign-extended mask AND (`x & -(active)`), which is
    /// branch-free and cheap even on the `i128` plane where a
    /// multiply-by-predicate is not. Levels above the per-update maximum
    /// (geometric, so `E[max] ≈ log2 R + 1`) are never touched, and each
    /// plane gets its own homogeneous loop so mixed-width arithmetic
    /// (`i64` / `i128` / `u64`) cannot pin the whole body to scalar code.
    #[inline]
    fn absorb(&mut self, key: u64, delta: i64, base: u64) {
        let reps = self.reps;
        let max = (self.levels - 1) as u32;
        for (l, &salt) in self.lvl_scratch.iter_mut().zip(&self.level_salt) {
            *l = splitmix64(base ^ salt).trailing_zeros().min(max);
        }
        let du = delta as u64;
        for (f, &salt) in self.fp_scratch.iter_mut().zip(&self.fp_salt) {
            // fingerprint += delta · fp over Z/2^64: two's-complement
            // wrapping multiplication makes negative deltas subtract, so
            // the accumulation is O(1) in |delta|.
            *f = du.wrapping_mul(splitmix64(base ^ salt));
        }
        let kd = key as i128 * delta as i128;
        let (kd_lo, kd_hi) = (kd as u64, (kd >> 64) as u64);
        // Level 0: every lane participates, no predication.
        for c in &mut self.count[..reps] {
            *c += delta;
        }
        for (f, &d) in self.fingerprint[..reps].iter_mut().zip(&self.fp_scratch) {
            *f = f.wrapping_add(d);
        }
        for (lo, hi) in self.key_sum_lo[..reps]
            .iter_mut()
            .zip(&mut self.key_sum_hi[..reps])
        {
            let nl = lo.wrapping_add(kd_lo);
            *hi = hi.wrapping_add(kd_hi).wrapping_add((nl < kd_lo) as u64);
            *lo = nl;
        }
        // Deeper levels: predicated lane adds up to the deepest draw.
        let deepest = self.lvl_scratch.iter().copied().max().unwrap_or(0) as usize;
        for level in 1..=deepest {
            let lv = level as u32;
            let row = level * reps;
            let counts = &mut self.count[row..row + reps];
            for (c, &l) in counts.iter_mut().zip(&self.lvl_scratch) {
                *c += delta & -((l >= lv) as i64);
            }
            let fps = &mut self.fingerprint[row..row + reps];
            for (f, (&l, &d)) in fps
                .iter_mut()
                .zip(self.lvl_scratch.iter().zip(&self.fp_scratch))
            {
                *f = f.wrapping_add(d & (-((l >= lv) as i64) as u64));
            }
            let lows = &mut self.key_sum_lo[row..row + reps];
            let highs = &mut self.key_sum_hi[row..row + reps];
            for ((lo, hi), &l) in lows.iter_mut().zip(highs.iter_mut()).zip(&self.lvl_scratch) {
                let m = -((l >= lv) as i64) as u64;
                let (x_lo, x_hi) = (kd_lo & m, kd_hi & m);
                let nl = lo.wrapping_add(x_lo);
                *hi = hi.wrapping_add(x_hi).wrapping_add((nl < x_lo) as u64);
                *lo = nl;
            }
        }
    }

    /// Absorb an update: `delta` is `+1`/`-1` in strict turnstile streams.
    #[inline]
    pub fn update(&mut self, key: u64, delta: i64) {
        self.updates_absorbed += 1;
        // One hash of the key feeds the whole repetition bank.
        let base = self.base_hash.hash64(key);
        self.absorb(key, delta, base);
    }

    /// Absorb a block of `(key, delta)` updates.
    ///
    /// Bit-identical to calling [`L0Sampler::update`] once per element
    /// (same draws, same additions, same order); the point is memory
    /// shape: base hashes are computed a chunk ahead (breaking the
    /// hash→update dependency chain), and a caller iterating *samplers
    /// outer, block inner* keeps one bank's planes cache-hot across the
    /// whole block instead of cycling every bank through cache per
    /// update — the access pattern of the turnstile executors, whose `f1`
    /// banks all absorb every update.
    pub fn update_batch(&mut self, updates: &[(u64, i64)]) {
        const CHUNK: usize = 16;
        let mut keys = [0u64; CHUNK];
        let mut bases = [0u64; CHUNK];
        for chunk in updates.chunks(CHUNK) {
            for (k, &(key, _)) in keys.iter_mut().zip(chunk) {
                *k = key;
            }
            self.base_hash
                .hash64_batch(&keys[..chunk.len()], &mut bases[..chunk.len()]);
            for (&(key, delta), &base) in chunk.iter().zip(&bases) {
                self.absorb(key, delta, base);
            }
        }
        self.updates_absorbed += updates.len() as u64;
    }

    /// Survivor-level dispatch body: per repetition, derive the deepest
    /// level ℓ from the shared draw and add to exactly the rows `0..=ℓ`
    /// at lane stride. Same rows, same wrapping adds as [`absorb`]'s
    /// predicated scan — only the rows that never sample are skipped —
    /// so the resulting planes are bit-identical.
    ///
    /// [`absorb`]: L0Sampler::absorb
    #[inline]
    fn absorb_dispatch(&mut self, key: u64, delta: i64, base: u64) {
        let reps = self.reps;
        let max = (self.levels - 1) as u32;
        let du = delta as u64;
        let kd = key as i128 * delta as i128;
        let (kd_lo, kd_hi) = (kd as u64, (kd >> 64) as u64);
        for r in 0..reps {
            let lvl = splitmix64(base ^ self.level_salt[r])
                .trailing_zeros()
                .min(max) as usize;
            let fpd = du.wrapping_mul(splitmix64(base ^ self.fp_salt[r]));
            let mut i = r;
            for _ in 0..=lvl {
                self.count[i] = self.count[i].wrapping_add(delta);
                self.fingerprint[i] = self.fingerprint[i].wrapping_add(fpd);
                let nl = self.key_sum_lo[i].wrapping_add(kd_lo);
                self.key_sum_hi[i] = self.key_sum_hi[i]
                    .wrapping_add(kd_hi)
                    .wrapping_add((nl < kd_lo) as u64);
                self.key_sum_lo[i] = nl;
                i += reps;
            }
        }
    }

    /// [`L0Sampler::update`] through the survivor-level dispatch path
    /// ([`L0Mode::Dispatch`]). Bit-identical to the predicated path for
    /// any update sequence.
    #[inline]
    pub fn update_dispatch(&mut self, key: u64, delta: i64) {
        self.updates_absorbed += 1;
        let base = self.base_hash.hash64(key);
        self.absorb_dispatch(key, delta, base);
    }

    /// One sampler's share of a bank sweep over one prologue chunk, with
    /// level-cohort slicing: for one repetition, bucket every update's
    /// (delta, key·delta, fingerprint delta) by its exact survivor level,
    /// then drain the cohorts deepest→0 with a running suffix sum — each
    /// detector row of the prefix `0..=deepest` takes **one** accumulated
    /// add for the whole chunk. Every plane field is a commutative
    /// wrapping sum, so the re-association leaves the final plane bits
    /// identical to per-update dispatch (and hence to the predicated
    /// scan). The drain touches `(deepest+1)·reps` rows per chunk, so the
    /// chunk width ([`DISPATCH_CHUNK`], 128) puts it near one row-add per
    /// update while the cohort scratch (4 planes × levels) stays L1-hot.
    ///
    /// `BITMASK` picks how survivors past level 0 are walked: a compacted
    /// index list (the portable copy) or the set bits of a lane mask
    /// (the AVX-512 copy, where the mask comes from one compare per
    /// vector). Both visit the same survivors in the same order.
    #[inline(always)]
    fn dispatch_chunk<const BITMASK: bool>(&mut self, c: &ChunkPrologue) {
        let reps = self.reps;
        let max = (self.levels - 1) as u32;
        let n = c.len;
        // The keyed half of this sampler's base hash; the unkeyed half
        // came from the shared prologue.
        let mut bases = [0u64; DISPATCH_CHUNK];
        for (b, &i) in bases[..n].iter_mut().zip(&c.inner[..n]) {
            *b = self.base_hash.finish(i);
        }
        let (kd_lo, kd_hi, del) = (&c.kd_lo, &c.kd_hi, &c.del);
        let (ktot_lo, ktot_hi) = (c.ktot as u64, ((c.ktot as u128) >> 64) as u64);
        let mut lvl = [0u32; DISPATCH_CHUNK];
        let mut fpd = [0u64; DISPATCH_CHUNK];
        for r in 0..reps {
            let lsalt = self.level_salt[r];
            let fsalt = self.fp_salt[r];
            // Lane passes — two SplitMix64 chains, a trailing-zeros
            // count, one multiply per update, stores only into the flat
            // lane arrays. Written as zipped iterators so no bounds
            // check survives into the loop bodies: these loops
            // autovectorize, which is where the predicated scan got its
            // throughput. The scattered work below is left with only
            // the survivors.
            let bs = &bases[..n];
            let mut ftot = 0u64;
            for (((l, f), &b), &d) in lvl[..n]
                .iter_mut()
                .zip(fpd[..n].iter_mut())
                .zip(bs)
                .zip(&del[..n])
            {
                *l = splitmix64(b ^ lsalt).trailing_zeros().min(max);
                let fp = (d as u64).wrapping_mul(splitmix64(b ^ fsalt));
                *f = fp;
                // Row-0 fingerprint total folds into the same reduction.
                ftot = ftot.wrapping_add(fp);
            }
            // Deepest survivor level: a vectorizable max reduction over
            // the lane array, so the scatter below carries no extra
            // loop-carried dependency.
            let mut deepest = 0u32;
            for &l in &lvl[..n] {
                deepest = deepest.max(l);
            }
            let deepest = deepest as usize;
            // Counting-sort pass over the survivors past level 0 (P = 1/2
            // each): each pays one scattered cohort add. The cohort
            // planes are sliced to `levels` up front and the index
            // re-clamped so every bounds check hoists out of the loop.
            {
                let levels = self.levels;
                let cc = &mut self.coh_count[..levels];
                let cf = &mut self.coh_fp[..levels];
                let cklo = &mut self.coh_kd_lo[..levels];
                let ckhi = &mut self.coh_kd_hi[..levels];
                let mut add = |j: usize| {
                    // `% DISPATCH_CHUNK` is a no-op (j < n <= DISPATCH_CHUNK)
                    // that lets the compiler drop the lane-array bounds
                    // checks.
                    let j = j % DISPATCH_CHUNK;
                    let l = (lvl[j] as usize).min(levels - 1);
                    cc[l] = cc[l].wrapping_add(del[j]);
                    cf[l] = cf[l].wrapping_add(fpd[j]);
                    let nl = cklo[l].wrapping_add(kd_lo[j]);
                    ckhi[l] = ckhi[l]
                        .wrapping_add(kd_hi[j])
                        .wrapping_add((nl < kd_lo[j]) as u64);
                    cklo[l] = nl;
                };
                if BITMASK {
                    for (w, lanes) in lvl[..n].chunks(64).enumerate() {
                        let mut m = 0u64;
                        for (b, &l) in lanes.iter().enumerate() {
                            m |= ((l != 0) as u64) << b;
                        }
                        while m != 0 {
                            add(w * 64 + m.trailing_zeros() as usize);
                            m &= m - 1;
                        }
                    }
                } else {
                    // Branchless compaction: the store always happens,
                    // the cursor advances conditionally, so there is
                    // nothing to mispredict.
                    let mut surv = [0u8; DISPATCH_CHUNK];
                    let mut ns = 0usize;
                    for (j, &l) in lvl[..n].iter().enumerate() {
                        surv[ns] = j as u8;
                        ns += (l != 0) as usize;
                    }
                    for &j in &surv[..ns] {
                        add(j as usize);
                    }
                }
            }
            // Drain pass: a level-ℓ survivor contributes to every row
            // `0..=ℓ`, so the running suffix sum over cohorts is exactly
            // each row's chunk total. Rows deepest..=1 take one
            // accumulated add each; cohorts are re-zeroed as they are
            // consumed, leaving the scratch clean for the next lane.
            let (mut dsum, mut fsum) = (0i64, 0u64);
            let (mut klo, mut khi) = (0u64, 0u64);
            for level in (1..=deepest).rev() {
                dsum = dsum.wrapping_add(self.coh_count[level]);
                fsum = fsum.wrapping_add(self.coh_fp[level]);
                let (c_lo, c_hi) = (self.coh_kd_lo[level], self.coh_kd_hi[level]);
                let nl = klo.wrapping_add(c_lo);
                khi = khi.wrapping_add(c_hi).wrapping_add((nl < c_lo) as u64);
                klo = nl;
                self.coh_count[level] = 0;
                self.coh_fp[level] = 0;
                self.coh_kd_lo[level] = 0;
                self.coh_kd_hi[level] = 0;
                let i = level * reps + r;
                self.count[i] = self.count[i].wrapping_add(dsum);
                self.fingerprint[i] = self.fingerprint[i].wrapping_add(fsum);
                let nl = self.key_sum_lo[i].wrapping_add(klo);
                self.key_sum_hi[i] = self.key_sum_hi[i]
                    .wrapping_add(khi)
                    .wrapping_add((nl < klo) as u64);
                self.key_sum_lo[i] = nl;
            }
            // Row 0 lands the prologue's chunk totals (every update
            // survives to level 0, so they are shared by every
            // repetition of every sampler) and this lane's fingerprint
            // total.
            self.count[r] = self.count[r].wrapping_add(c.dtot);
            self.fingerprint[r] = self.fingerprint[r].wrapping_add(ftot);
            let nl = self.key_sum_lo[r].wrapping_add(ktot_lo);
            self.key_sum_hi[r] = self.key_sum_hi[r]
                .wrapping_add(ktot_hi)
                .wrapping_add((nl < ktot_lo) as u64);
            self.key_sum_lo[r] = nl;
        }
    }

    /// [`L0Sampler::update_batch`] through the survivor-level dispatch
    /// path: the one-sampler case of [`BankFeed`]. Bit-identical to both
    /// the scalar paths and the predicated batch at every block size.
    pub fn update_batch_dispatch(&mut self, updates: &[(u64, i64)]) {
        let mut feed = BankFeed::new(std::slice::from_mut(self), L0Mode::Dispatch, 1);
        feed.push(updates);
        feed.finish();
    }

    /// Mode-selected scalar update: dispatch or predicated per `mode`.
    #[inline]
    pub fn update_with(&mut self, mode: L0Mode, key: u64, delta: i64) {
        match mode {
            L0Mode::Predicated => self.update(key, delta),
            L0Mode::Dispatch => self.update_dispatch(key, delta),
        }
    }

    /// Mode-selected batch update: dispatch or predicated per `mode`.
    #[inline]
    pub fn update_batch_with(&mut self, mode: L0Mode, updates: &[(u64, i64)]) {
        match mode {
            L0Mode::Predicated => self.update_batch(updates),
            L0Mode::Dispatch => self.update_batch_dispatch(updates),
        }
    }

    /// The 128-bit key-sum accumulator of detector `i`, reassembled from
    /// its split planes (bit-exact two's complement).
    #[inline]
    fn key_sum_at(&self, i: usize) -> i128 {
        (((self.key_sum_hi[i] as u128) << 64) | self.key_sum_lo[i] as u128) as i128
    }

    /// One repetition's query: walk its levels deepest-first and recover
    /// from the first non-empty one.
    fn sample_rep(&self, rep: usize) -> Option<u64> {
        for level in (0..self.levels).rev() {
            let i = level * self.reps + rep;
            let key_sum = self.key_sum_at(i);
            if self.count[i] == 0 && key_sum == 0 && self.fingerprint[i] == 0 {
                continue;
            }
            // Deepest non-empty level: exactly-1-sparse with weight +1
            // (strict-turnstile simple-graph semantics) or failure.
            if self.count[i] != 1 {
                return None;
            }
            if !(0..=u64::MAX as i128).contains(&key_sum) {
                return None;
            }
            let key = key_sum as u64;
            let fp = splitmix64(self.base_hash.hash64(key) ^ self.fp_salt[rep]);
            return (fp == self.fingerprint[i]).then_some(key);
        }
        None
    }

    /// Query: a uniform support element, or `None` on failure (all
    /// repetitions had ties) or empty support.
    pub fn sample(&self) -> Option<u64> {
        (0..self.reps).find_map(|rep| self.sample_rep(rep))
    }

    /// Absorb the state of an identically-seeded sampler that saw a
    /// *disjoint* update subset. Every detector field is linear, so the
    /// merged state is bit-identical to a single sampler that absorbed
    /// both subsets in any order — the property the sharded turnstile
    /// executor uses to split one stream across feed shards. On the SoA
    /// bank the merge is three plane-wide lane loops.
    ///
    /// Panics if the samplers were built with different seeds or shapes
    /// (their hash families would disagree and the merge would be
    /// meaningless).
    pub fn merge(&mut self, other: &L0Sampler) {
        assert_eq!(self.seed, other.seed, "merging differently-seeded samplers");
        assert_eq!(self.reps, other.reps, "repetition mismatch");
        assert_eq!(self.levels, other.levels, "level-count mismatch");
        debug_assert_eq!(self.level_salt, other.level_salt);
        for (a, b) in self.count.iter_mut().zip(&other.count) {
            *a += b;
        }
        for ((lo, hi), (&b_lo, &b_hi)) in self
            .key_sum_lo
            .iter_mut()
            .zip(self.key_sum_hi.iter_mut())
            .zip(other.key_sum_lo.iter().zip(&other.key_sum_hi))
        {
            let nl = lo.wrapping_add(b_lo);
            *hi = hi.wrapping_add(b_hi).wrapping_add((nl < b_lo) as u64);
            *lo = nl;
        }
        for (a, b) in self.fingerprint.iter_mut().zip(&other.fingerprint) {
            *a = a.wrapping_add(*b);
        }
        self.updates_absorbed += other.updates_absorbed;
    }

    /// Whether the first repetition's level 0 is empty — i.e. the absorbed
    /// updates cancel completely. Exact for strict streams (level 0 holds
    /// every key). Index 0 of the count plane is `(level 0, repetition 0)`.
    pub fn support_is_empty(&self) -> bool {
        self.count[0] == 0
    }

    /// Total updates absorbed (diagnostics).
    pub fn updates_absorbed(&self) -> u64 {
        self.updates_absorbed
    }

    /// Negate the sketch in place: afterwards it summarizes `-x` instead
    /// of `x`. Every detector field is linear, so merging a negated
    /// snapshot into a live sketch *subtracts* the snapshot's update
    /// prefix exactly — the sliding-window subtraction the windowed demo
    /// is built on. (`updates_absorbed` is diagnostics, not sketch state;
    /// it is left as the count of updates this bank processed.)
    pub fn negate(&mut self) {
        for c in &mut self.count {
            *c = -*c;
        }
        for (lo, hi) in self.key_sum_lo.iter_mut().zip(&mut self.key_sum_hi) {
            // 128-bit two's-complement negate across the split planes.
            let v = (((*hi as u128) << 64) | *lo as u128).wrapping_neg();
            *lo = v as u64;
            *hi = (v >> 64) as u64;
        }
        for fp in &mut self.fingerprint {
            *fp = fp.wrapping_neg();
        }
    }

    /// Serialize the sketch as one framed, checksummed record: seed and
    /// shape (from which the salts and base hash re-derive exactly) plus
    /// the four detector planes and the update counter.
    pub fn to_persist_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64(self.seed);
        enc.u64(self.reps as u64);
        enc.u64(self.levels as u64);
        enc.u64(self.updates_absorbed);
        for &c in &self.count {
            enc.i64(c);
        }
        for &v in &self.key_sum_lo {
            enc.u64(v);
        }
        for &v in &self.key_sum_hi {
            enc.u64(v);
        }
        for &v in &self.fingerprint {
            enc.u64(v);
        }
        frame(KIND_L0, &enc.into_bytes())
    }

    /// Deserialize a record written by [`L0Sampler::to_persist_bytes`].
    /// The sampler is reconstructed through [`L0Sampler::new`] (salts and
    /// hash re-derived from the seed) and its planes overwritten, so a
    /// decoded sampler is bit-identical to the encoded one. Corrupt
    /// input errors; it never panics.
    pub fn from_persist_bytes(bytes: &[u8]) -> PersistResult<L0Sampler> {
        let f = read_frame_of(bytes, 0, KIND_L0)?;
        let mut dec = Decoder::new(f.payload);
        let seed = dec.u64("sampler seed")?;
        let reps = dec.u64("repetition count")?;
        let levels = dec.u64("level count")?;
        let updates_absorbed = dec.u64("update counter")?;
        let detectors = reps
            .checked_mul(levels)
            .filter(|&d| d > 0 && d as usize * 32 <= dec.remaining())
            .ok_or_else(|| dec.corrupt(format!("implausible sampler shape {reps}x{levels}")))?
            as usize;
        let mut s = L0Sampler::new((levels - 1) as u32, reps as usize, seed);
        for c in &mut s.count[..detectors] {
            *c = dec.i64("count plane")?;
        }
        for v in &mut s.key_sum_lo[..detectors] {
            *v = dec.u64("key-sum-lo plane")?;
        }
        for v in &mut s.key_sum_hi[..detectors] {
            *v = dec.u64("key-sum-hi plane")?;
        }
        for v in &mut s.fingerprint[..detectors] {
            *v = dec.u64("fingerprint plane")?;
        }
        s.updates_absorbed = updates_absorbed;
        dec.finish()?;
        Ok(s)
    }
}

/// Updates one bank-wide sweep covers: 16 dispatch chunks. Each sampler's
/// planes are loaded once per super-block instead of once per router
/// block, and the prologue scratch stays bounded (about 64 KiB) however
/// long the feed call or the pass's block size. On a 2-vCPU AVX-512 Xeon,
/// 8, 16 and 32 chunks timed the same end to end; 16 keeps the scratch
/// small without approaching per-block sweeps.
pub const BANK_SUPER_BLOCK: usize = BANK_SUPER_CHUNKS * DISPATCH_CHUNK;
const BANK_SUPER_CHUNKS: usize = 16;

/// The sampler-independent work of one dispatch chunk, done once for the
/// whole bank: the unkeyed half of the base hash, the key·delta split,
/// the delta lanes and the row-0 totals.
struct ChunkPrologue {
    len: usize,
    /// `splitmix64(key)`; each sampler finishes it with its own seed.
    inner: [u64; DISPATCH_CHUNK],
    kd_lo: [u64; DISPATCH_CHUNK],
    kd_hi: [u64; DISPATCH_CHUNK],
    del: [i64; DISPATCH_CHUNK],
    /// Row-0 totals: every update survives to level 0, so these are
    /// shared by every repetition of every sampler.
    dtot: i64,
    ktot: i128,
}

impl ChunkPrologue {
    fn empty() -> Self {
        ChunkPrologue {
            len: 0,
            inner: [0; DISPATCH_CHUNK],
            kd_lo: [0; DISPATCH_CHUNK],
            kd_hi: [0; DISPATCH_CHUNK],
            del: [0; DISPATCH_CHUNK],
            dtot: 0,
            ktot: 0,
        }
    }

    fn clear(&mut self) {
        (self.len, self.dtot, self.ktot) = (0, 0, 0);
    }

    /// Append up to the chunk's free lanes from `updates`; returns how
    /// many were taken.
    fn extend(&mut self, updates: &[(u64, i64)]) -> usize {
        let start = self.len;
        let take = (DISPATCH_CHUNK - start).min(updates.len());
        let (mut dtot, mut ktot) = (self.dtot, self.ktot);
        for ((((i, lo), hi), d), &(key, delta)) in self.inner[start..start + take]
            .iter_mut()
            .zip(&mut self.kd_lo[start..start + take])
            .zip(&mut self.kd_hi[start..start + take])
            .zip(&mut self.del[start..start + take])
            .zip(updates)
        {
            let kd = key as i128 * delta as i128;
            *i = splitmix64(key);
            *lo = kd as u64;
            *hi = (kd >> 64) as u64;
            *d = delta;
            dtot = dtot.wrapping_add(delta);
            // A plain wrapping i128 sum lands the same 2^128-modular
            // value as the per-element lo/hi carry chain, so the row-0
            // total stays bit-exact.
            ktot = ktot.wrapping_add(kd);
        }
        self.len += take;
        self.dtot = dtot;
        self.ktot = ktot;
        take
    }
}

/// The one sweep body: samplers outer, chunks inner, so each sampler's
/// planes stay in cache for the whole super-block.
#[inline(always)]
fn sweep_body<const BITMASK: bool>(bank: &mut [L0Sampler], chunks: &[ChunkPrologue]) {
    let absorbed: u64 = chunks.iter().map(|c| c.len as u64).sum();
    for s in bank {
        for c in chunks {
            s.dispatch_chunk::<BITMASK>(c);
        }
        s.updates_absorbed += absorbed;
    }
}

/// The portable copy of the sweep, compiled for the build's target.
fn sweep_portable(bank: &mut [L0Sampler], chunks: &[ChunkPrologue]) {
    sweep_body::<false>(bank, chunks)
}

/// Declares the AVX-512 copy of the sweep and its run-time check from one
/// feature list, so the features the copy is compiled with and the
/// features the CPU is checked for are the same list.
#[cfg(target_arch = "x86_64")]
macro_rules! avx512_copy {
    ($($feature:tt),+) => {
        /// The AVX-512 copy of the sweep: [`sweep_body`] compiled with
        /// the features below, walking survivors by lane mask. Calling it
        /// on a CPU without them is undefined behaviour, so the one call
        /// site checks [`avx512_supported`] first.
        $(#[target_feature(enable = $feature)])+
        fn sweep_avx512(bank: &mut [L0Sampler], chunks: &[ChunkPrologue]) {
            sweep_body::<true>(bank, chunks)
        }

        /// Whether this CPU has every feature [`sweep_avx512`] is
        /// compiled with; detected on first use and cached.
        fn avx512_supported() -> bool {
            static SUPPORTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
            *SUPPORTED.get_or_init(|| $(std::arch::is_x86_feature_detected!($feature))&&+)
        }
    };
}

#[cfg(target_arch = "x86_64")]
avx512_copy!("avx512f", "avx512dq", "avx512cd", "avx512vl");

/// Which compiled copy of the sweep runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The widest copy this CPU can run.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if avx512_supported() {
            return Kernel::Avx512;
        }
        Kernel::Portable
    }

    fn sweep(self, bank: &mut [L0Sampler], chunks: &[ChunkPrologue]) {
        match self {
            Kernel::Portable => sweep_portable(bank, chunks),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                assert!(avx512_supported(), "AVX-512 sweep on a CPU without it");
                // SAFETY: the assert above found every feature
                // `sweep_avx512` is compiled with.
                unsafe { sweep_avx512(bank, chunks) }
            }
        }
    }
}

/// The least work, in sampler-updates (samplers × queued updates), that
/// every part of a split sweep must get; a sweep with less stays whole on
/// the calling thread. On a 2-vCPU AVX-512 Xeon a one-thread sweep costs
/// 28–38 ns per sampler-update (perfbench `count-turnstile --trace 1`),
/// so 65,536 of them take 1.8–2.5 ms, against a median 24 µs for one
/// scoped spawn + join: at most 1.3% overhead per part. One-trial
/// passes and small banks then never spawn a thread, and a short feed
/// call needs a large bank: a 256-update call splits in two only from
/// 512 samplers up.
const SPLIT_FLOOR: usize = 65_536;

/// A bank-wide feed: every sampler of a bank absorbs every pushed
/// `(key, delta)` update — the shape of a turnstile pass's `f1` bank,
/// where each `f1` query owns one sampler over the whole edge domain.
///
/// On [`L0Mode::Dispatch`] the feed queues updates in prologue chunks of
/// [`DISPATCH_CHUNK`], doing the sampler-independent work once for the
/// bank, and sweeps the bank samplers outer once per
/// [`BANK_SUPER_BLOCK`] queued updates and at [`BankFeed::finish`].
/// A sweep may be split into up to `threads` contiguous sampler ranges
/// that run at once over the shared read-only prologue, when every
/// range gets at least 65,536 sampler-updates; each sampler is still
/// swept by exactly one thread.
/// Every plane field is a commutative wrapping sum, so the planes,
/// `updates_absorbed` and the persisted bytes equal per-sampler
/// [`L0Sampler::update_batch_dispatch`] over the same updates, whatever
/// the push sizes and the split. [`L0Mode::Predicated`] forwards each
/// push to the per-sampler oracle unchanged, on the calling thread.
pub struct BankFeed<'a> {
    bank: &'a mut [L0Sampler],
    mode: L0Mode,
    kernel: Kernel,
    /// Most threads one sweep may use, the calling thread included.
    threads: usize,
    /// Least sampler-updates per part of a split sweep: [`SPLIT_FLOOR`],
    /// lowered only by tests.
    floor: usize,
    /// Prologue chunks; the first `used` hold queued updates.
    chunks: Vec<ChunkPrologue>,
    used: usize,
}

impl<'a> BankFeed<'a> {
    /// Start feeding `bank` through `mode`, sweeping on up to `threads`
    /// threads (the calling thread included; 0 and 1 both keep every
    /// sweep on the calling thread).
    pub fn new(bank: &'a mut [L0Sampler], mode: L0Mode, threads: usize) -> Self {
        Self::with_kernel(bank, mode, Kernel::detect(), threads, SPLIT_FLOOR)
    }

    fn with_kernel(
        bank: &'a mut [L0Sampler],
        mode: L0Mode,
        kernel: Kernel,
        threads: usize,
        floor: usize,
    ) -> Self {
        BankFeed {
            bank,
            mode,
            kernel,
            threads,
            floor,
            chunks: Vec::new(),
            used: 0,
        }
    }

    /// Feed `updates` to every sampler of the bank.
    pub fn push(&mut self, mut updates: &[(u64, i64)]) {
        if self.mode == L0Mode::Predicated {
            for s in self.bank.iter_mut() {
                s.update_batch(updates);
            }
            return;
        }
        while !updates.is_empty() {
            if self.used == 0 || self.chunks[self.used - 1].len == DISPATCH_CHUNK {
                if self.used == BANK_SUPER_CHUNKS {
                    self.sweep();
                }
                if self.used == self.chunks.len() {
                    self.chunks.reserve_exact(BANK_SUPER_CHUNKS - self.used);
                    self.chunks.push(ChunkPrologue::empty());
                }
                self.chunks[self.used].clear();
                self.used += 1;
            }
            let took = self.chunks[self.used - 1].extend(updates);
            updates = &updates[took..];
        }
    }

    /// Land every queued update in the bank.
    pub fn finish(mut self) {
        if self.used > 0 {
            self.sweep();
        }
    }

    /// Sweep the queued chunks into the bank. Split sweeps hand each
    /// helper thread one contiguous sampler range; the calling thread
    /// takes the first. The ranges are disjoint and the prologue is only
    /// read, so every sampler gets the adds of the one-thread sweep.
    fn sweep(&mut self) {
        let chunks = &self.chunks[..self.used];
        let parts = self.parts(chunks.iter().map(|c| c.len).sum());
        let kernel = self.kernel;
        if parts <= 1 {
            kernel.sweep(self.bank, chunks);
        } else {
            // Balanced sizes: part i holds q samplers, plus one for the
            // first `extra` parts.
            let (q, extra) = (self.bank.len() / parts, self.bank.len() % parts);
            let mut rest = &mut *self.bank;
            std::thread::scope(|scope| {
                for i in (1..parts).rev() {
                    let at = rest.len() - q - usize::from(i < extra);
                    let (head, range) = std::mem::take(&mut rest).split_at_mut(at);
                    rest = head;
                    scope.spawn(move || kernel.sweep(range, chunks));
                }
                kernel.sweep(rest, chunks);
            });
        }
        self.used = 0;
    }

    /// How many parts a sweep of `updates` queued updates splits into:
    /// at most `threads`, and few enough that the smallest part still
    /// gets `floor` sampler-updates.
    fn parts(&self, updates: usize) -> usize {
        if self.threads <= 1 || updates == 0 {
            return 1;
        }
        let min_samplers = self.floor.div_ceil(updates).max(1);
        (self.bank.len() / min_samplers).clamp(1, self.threads)
    }
}

impl SpaceUsage for L0Sampler {
    fn space_bytes(&self) -> usize {
        // One detector = count + key_sum + fingerprint (the 4-word record
        // of the old array-of-structs layout, minus its padding).
        let per_detector =
            std::mem::size_of::<i64>() + std::mem::size_of::<i128>() + std::mem::size_of::<u64>();
        self.count.len() * per_detector
            + self.reps * 2 * std::mem::size_of::<u64>() // per-rep salts
            + self.reps * (std::mem::size_of::<u32>() + std::mem::size_of::<u64>()) // lane scratch
            + self.levels * 4 * std::mem::size_of::<u64>() // dispatch cohort scratch
            + std::mem::size_of::<SeededHash>() // shared base hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The pre-SoA 1-sparse detector, kept verbatim as the reference for
    /// the layout-equivalence tests below.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct OneSparse {
        count: i64,
        key_sum: i128,
        fingerprint: u64,
    }

    impl OneSparse {
        fn update(&mut self, key: u64, delta: i64, fp: u64) {
            self.count += delta;
            self.key_sum += key as i128 * delta as i128;
            self.fingerprint = self
                .fingerprint
                .wrapping_add((delta as u64).wrapping_mul(fp));
        }

        fn recover(&self, fp_of: impl Fn(u64) -> u64) -> Option<u64> {
            if self.count != 1 {
                return None;
            }
            if self.key_sum < 0 || self.key_sum > u64::MAX as i128 {
                return None;
            }
            let key = self.key_sum as u64;
            (fp_of(key) == self.fingerprint).then_some(key)
        }

        fn is_zero(&self) -> bool {
            self.count == 0 && self.key_sum == 0 && self.fingerprint == 0
        }
    }

    /// Replica of the pre-SoA array-of-structs bank (shared base draw,
    /// per-repetition `Vec<OneSparse>` level hierarchy): the oracle the
    /// SoA re-layout must match bit for bit.
    struct AosSampler {
        base_hash: SeededHash,
        reps: Vec<(u64, u64, Vec<OneSparse>)>, // (level_salt, fp_salt, levels)
    }

    impl AosSampler {
        fn new(max_level: u32, reps: usize, seed: u64) -> Self {
            AosSampler {
                base_hash: SeededHash::new(split_seed(seed, 99)),
                reps: (0..reps)
                    .map(|i| {
                        let s = split_seed(seed, 100 + i as u64);
                        (
                            split_seed(s, 0),
                            split_seed(s, 1),
                            vec![OneSparse::default(); max_level as usize + 1],
                        )
                    })
                    .collect(),
            }
        }

        fn update(&mut self, key: u64, delta: i64) {
            let base = self.base_hash.hash64(key);
            for (level_salt, fp_salt, levels) in &mut self.reps {
                let max = (levels.len() - 1) as u32;
                let lvl = splitmix64(base ^ *level_salt).trailing_zeros().min(max);
                let fp = splitmix64(base ^ *fp_salt);
                for level in levels.iter_mut().take(lvl as usize + 1) {
                    level.update(key, delta, fp);
                }
            }
        }

        fn sample(&self) -> Option<u64> {
            let base_hash = &self.base_hash;
            self.reps.iter().find_map(|(_, fp_salt, levels)| {
                for l in (0..levels.len()).rev() {
                    if levels[l].is_zero() {
                        continue;
                    }
                    return levels[l].recover(|key| splitmix64(base_hash.hash64(key) ^ fp_salt));
                }
                None
            })
        }
    }

    /// A deterministic mixed update sequence (inserts, deletes, repeated
    /// keys, larger deltas) for the equivalence tests.
    fn mixed_updates(seed: u64, len: usize) -> Vec<(u64, i64)> {
        (0..len as u64)
            .map(|i| {
                let k = splitmix64(seed ^ i) % 97 + 1;
                let d = match i % 7 {
                    0..=3 => 1,
                    4 => -1,
                    5 => 3,
                    _ => -2,
                };
                (k, d)
            })
            .collect()
    }

    /// Assert that two SoA banks hold bit-identical detector planes.
    fn assert_planes_eq(a: &L0Sampler, b: &L0Sampler, what: &str) {
        assert_eq!(a.count, b.count, "{what}: count plane");
        assert_eq!(a.key_sum_lo, b.key_sum_lo, "{what}: key-sum-lo plane");
        assert_eq!(a.key_sum_hi, b.key_sum_hi, "{what}: key-sum-hi plane");
        assert_eq!(a.fingerprint, b.fingerprint, "{what}: fingerprint plane");
    }

    #[test]
    fn soa_bank_is_bit_identical_to_aos_bank() {
        // The layout/feed-path tentpole claim, as a three-way pin: the
        // SoA re-layout changes the memory walk and survivor-level
        // dispatch changes the instruction mix, but neither changes one
        // bit of detector state. Every detector of every repetition must
        // match the array-of-structs replica via the predicated scalar,
        // predicated batched, dispatch scalar, and dispatch level-cohort
        // paths, across lane counts (including non-multiples of the
        // vector width) — and negate/merge/persist round-trips after
        // dispatch-fed updates must land on the same bits too.
        for &reps in &[1usize, 3, 4, 8, 16, 31] {
            let updates = mixed_updates(0x50a ^ reps as u64, 300);
            let max_level = 24u32;
            let seed = 0xabc0 + reps as u64;
            let mut aos = AosSampler::new(max_level, reps, seed);
            let mut soa = L0Sampler::new(max_level, reps, seed);
            let mut soa_blocked = L0Sampler::new(max_level, reps, seed);
            let mut disp = L0Sampler::new(max_level, reps, seed);
            let mut disp_blocked = L0Sampler::new(max_level, reps, seed);
            for &(k, d) in &updates {
                aos.update(k, d);
                soa.update(k, d);
                disp.update_dispatch(k, d);
            }
            for block in updates.chunks(13) {
                soa_blocked.update_batch(block);
                disp_blocked.update_batch_dispatch(block);
            }
            for rep in 0..reps {
                let (_, _, levels) = &aos.reps[rep];
                for (level, det) in levels.iter().enumerate() {
                    let i = level * reps + rep;
                    assert_eq!(soa.count[i], det.count, "reps {reps} rep {rep} lvl {level}");
                    assert_eq!(
                        soa.key_sum_at(i),
                        det.key_sum,
                        "reps {reps} rep {rep} lvl {level}"
                    );
                    assert_eq!(
                        soa.fingerprint[i], det.fingerprint,
                        "reps {reps} rep {rep} lvl {level}"
                    );
                }
            }
            assert_planes_eq(&soa_blocked, &soa, "predicated blocked vs scalar");
            assert_planes_eq(&disp, &soa, "dispatch scalar vs predicated");
            assert_planes_eq(&disp_blocked, &soa, "dispatch blocked vs predicated");
            assert_eq!(soa.sample(), aos.sample(), "reps {reps}");
            assert_eq!(soa_blocked.sample(), aos.sample(), "reps {reps}");
            assert_eq!(disp.sample(), aos.sample(), "reps {reps}");
            assert_eq!(disp_blocked.sample(), aos.sample(), "reps {reps}");
            assert_eq!(soa_blocked.updates_absorbed(), updates.len() as u64);
            assert_eq!(disp_blocked.updates_absorbed(), updates.len() as u64);

            // Negate after dispatch feeding: same bits as negating the
            // predicated bank.
            let mut disp_neg = disp_blocked.clone();
            let mut soa_neg = soa.clone();
            disp_neg.negate();
            soa_neg.negate();
            assert_planes_eq(&disp_neg, &soa_neg, "negate after dispatch");

            // Merge a dispatch-fed half into a predicated-fed half: the
            // merged bank must equal the whole-stream bank bit for bit.
            let split = updates.len() / 3;
            let mut a = L0Sampler::new(max_level, reps, seed);
            let mut b = L0Sampler::new(max_level, reps, seed);
            a.update_batch_dispatch(&updates[..split]);
            b.update_batch(&updates[split..]);
            a.merge(&b);
            assert_planes_eq(&a, &soa, "merge dispatch+predicated halves");

            // Persist round-trip of a dispatch-fed bank, then keep
            // feeding the decoded bank through dispatch: identical to
            // the uninterrupted predicated run.
            let restored = L0Sampler::from_persist_bytes(&disp_blocked.to_persist_bytes()).unwrap();
            assert_planes_eq(&restored, &soa, "persist round-trip after dispatch");
            let mut resumed = restored.clone();
            let mut oracle = soa.clone();
            resumed.update_batch_dispatch(&updates[..40.min(updates.len())]);
            oracle.update_batch(&updates[..40.min(updates.len())]);
            assert_planes_eq(&resumed, &oracle, "dispatch feed after restore");
            assert_eq!(resumed.updates_absorbed(), oracle.updates_absorbed());
        }
    }

    /// Updates for the bank-feed tests: repeated small keys (cancelling
    /// pairs, crowded cohorts), full-width keys whose key·delta carries
    /// into the high half, and zero, negative and |delta| > 1 deltas.
    fn bank_updates(seed: u64, len: usize) -> Vec<(u64, i64)> {
        (0..len as u64)
            .map(|i| {
                let h = splitmix64(seed ^ i);
                let key = if i % 3 == 0 { h } else { h % 97 + 1 };
                let delta = match i % 9 {
                    0..=3 => 1,
                    4 => -1,
                    5 => 0,
                    6 => 3,
                    7 => -2,
                    _ => 1 << 40,
                };
                (key, delta)
            })
            .collect()
    }

    fn fresh_bank(len: usize, max_level: u32, reps: usize) -> Vec<L0Sampler> {
        (0..len)
            .map(|i| L0Sampler::new(max_level, reps, split_seed(0xba4c, i as u64)))
            .collect()
    }

    fn persisted(bank: &[L0Sampler]) -> Vec<Vec<u8>> {
        bank.iter().map(L0Sampler::to_persist_bytes).collect()
    }

    /// Feed `updates` to a fresh bank through [`BankFeed`] on `kernel`:
    /// pushes of the cycled `sizes`, split over `calls` separate feeds,
    /// each sweep split into up to `parts` threads with the work floor
    /// lowered to one sampler-update.
    fn bank_fed(
        kernel: Kernel,
        parts: usize,
        shape: (usize, u32, usize),
        updates: &[(u64, i64)],
        sizes: &[usize],
        calls: usize,
    ) -> Vec<Vec<u8>> {
        let (len, max_level, reps) = shape;
        let mut bank = fresh_bank(len, max_level, reps);
        let per_call = updates.len().div_ceil(calls).max(1);
        for call in updates.chunks(per_call) {
            let mut feed = BankFeed::with_kernel(&mut bank, L0Mode::Dispatch, kernel, parts, 1);
            let mut rest = call;
            for &size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(size.min(rest.len()));
                feed.push(head);
                rest = tail;
            }
            feed.finish();
        }
        persisted(&bank)
    }

    /// The kernels this CPU runs; the AVX-512 copy is skipped with a note
    /// when the features are missing.
    fn kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if avx512_supported() {
            kernels.push(Kernel::Avx512);
        }
        if kernels.len() == 1 {
            println!(
                "note: this CPU lacks the AVX-512 copy's features; checked the portable copy only"
            );
        }
        kernels
    }

    #[test]
    fn bank_feed_is_bit_identical_across_kernels_and_per_sampler_paths() {
        // Four paths over the same updates must persist the same bytes,
        // planes and update counters alike: the bank feed on the portable
        // copy, on the AVX-512 copy, per-sampler `update_batch_dispatch`,
        // and the scalar predicated oracle. The bank feed also runs with
        // every sweep split into 2, 3 and 7 threads, which on the one- and
        // three-sampler banks asks for more parts than there are samplers.
        let kernels = kernels();
        let check = |shape: (usize, u32, usize), updates: &[(u64, i64)], what: &str| {
            let (len, max_level, reps) = shape;
            let mut oracle = fresh_bank(len, max_level, reps);
            for s in &mut oracle {
                for &(k, d) in updates {
                    s.update(k, d);
                }
            }
            let want = persisted(&oracle);
            let mut per_sampler = fresh_bank(len, max_level, reps);
            for s in &mut per_sampler {
                for block in updates.chunks(DISPATCH_CHUNK + 1) {
                    s.update_batch_dispatch(block);
                }
            }
            assert!(
                persisted(&per_sampler) == want,
                "{what}: per-sampler dispatch"
            );
            let whole = [updates.len().max(1)];
            let splits: [(&[usize], usize); 4] = [
                (&whole, 1),
                (&[13], 1),
                (&[127, 129, 1], 2),
                (&[BANK_SUPER_BLOCK - 1, 2], 3),
            ];
            for &kernel in &kernels {
                for parts in [1, 2, 3, 7] {
                    // Split sweeps see the same chunks whatever the push
                    // sizes; the multi-call splits give them more sweeps.
                    let splits = &splits[if parts == 1 { 0 } else { 2 }..];
                    for &(sizes, calls) in splits {
                        assert!(
                            bank_fed(kernel, parts, shape, updates, sizes, calls) == want,
                            "{what}: {kernel:?} in {parts} part(s), \
                             pushes {sizes:?} over {calls} call(s)"
                        );
                    }
                }
            }
        };
        let mut lens: Vec<usize> = (1..=17).collect();
        lens.extend([127, 129, 300]);
        for &reps in &[8usize, 16, 32] {
            for &max_level in &[1u32, 24] {
                for &len in &lens {
                    let updates = bank_updates(len as u64 ^ reps as u64, len);
                    let what = format!("R={reps} max_level={max_level} len={len}");
                    check((3, max_level, reps), &updates, &what);
                }
            }
        }
        // Super-block edges, on one- and three-sampler banks.
        for len in [
            BANK_SUPER_BLOCK - 1,
            BANK_SUPER_BLOCK,
            BANK_SUPER_BLOCK + 1,
            2 * BANK_SUPER_BLOCK + 129,
        ] {
            let updates = bank_updates(0x5b ^ len as u64, len);
            for bank_len in [1usize, 3] {
                let what = format!("bank {bank_len} len={len}");
                check((bank_len, 24, DEFAULT_REPS), &updates, &what);
            }
        }
        // A triangle-trial-sized bank: 1200 samplers.
        let updates = bank_updates(0x1200, 300);
        check((1200, 20, DEFAULT_REPS), &updates, "bank 1200");
    }

    #[test]
    fn split_sweeps_respect_the_work_floor() {
        // Parts a sweep of `updates` splits into, for a bank of `len`
        // samplers and a budget of `threads`, at the shipped floor.
        let parts = |len: usize, threads: usize, updates: usize| {
            let mut bank = fresh_bank(len, 4, 8);
            BankFeed::new(&mut bank, L0Mode::Dispatch, threads).parts(updates)
        };
        // 1200 samplers × one super-block: 2,457,600 sampler-updates.
        assert_eq!(parts(1200, 2, BANK_SUPER_BLOCK), 2);
        assert_eq!(parts(1200, 7, BANK_SUPER_BLOCK), 7);
        // Each part needs 65,536 / 2048 = 32 samplers of a full sweep.
        assert_eq!(parts(64, 2, BANK_SUPER_BLOCK), 2);
        assert_eq!(parts(63, 2, BANK_SUPER_BLOCK), 1);
        assert_eq!(parts(100, 8, BANK_SUPER_BLOCK), 3);
        // A 256-update feed call needs 256 samplers per part.
        assert_eq!(parts(512, 2, 256), 2);
        assert_eq!(parts(511, 2, 256), 1);
        // A one-trial bank, a short feed call and a one-thread budget
        // never split.
        assert_eq!(parts(2, 2, BANK_SUPER_BLOCK), 1);
        assert_eq!(parts(1200, 2, 54), 1);
        assert_eq!(parts(1200, 1, BANK_SUPER_BLOCK), 1);
        assert_eq!(parts(1200, 0, BANK_SUPER_BLOCK), 1);
        assert_eq!(parts(1200, 2, 0), 1);
    }

    #[test]
    fn dispatch_matches_predicated_at_every_block_size() {
        let updates = mixed_updates(0xd15b, 157);
        let mut scalar = L0Sampler::new(30, DEFAULT_REPS, 5);
        for &(k, d) in &updates {
            scalar.update(k, d);
        }
        for block in [1usize, 2, 7, 16, 64, 157, 400] {
            let mut batched = L0Sampler::new(30, DEFAULT_REPS, 5);
            for chunk in updates.chunks(block) {
                batched.update_batch_dispatch(chunk);
            }
            batched.update_batch_dispatch(&[]); // empty block is a no-op
            assert_planes_eq(&batched, &scalar, "dispatch block");
            assert_eq!(batched.updates_absorbed(), scalar.updates_absorbed());
            assert_eq!(batched.sample(), scalar.sample(), "block {block}");
        }
    }

    #[test]
    fn dispatch_handles_level_clamp_zero_deltas_and_duplicates() {
        // Three dispatch edge cases in one sweep. Tiny level budgets
        // (max_level 0/1/2) force the trailing-zeros draw to clamp at
        // ℓ = L-1 constantly — the all-levels-survive case where the
        // dispatched prefix is the whole bank. Zero deltas must add
        // zeros everywhere (planes identical to never feeding them), and
        // duplicate-heavy blocks pile many updates into one cohort.
        for max_level in [0u32, 1, 2, 24] {
            let mut updates = mixed_updates(0xc1a + max_level as u64, 120);
            for i in (0..updates.len()).step_by(5) {
                updates[i].1 = 0; // interleave zero-delta updates
            }
            let dup_key = updates[0].0;
            updates.extend(std::iter::repeat_n((dup_key, 1), 40));
            updates.extend(std::iter::repeat_n((dup_key, -1), 40));
            let mut pred = L0Sampler::new(max_level, DEFAULT_REPS, 77);
            let mut disp = L0Sampler::new(max_level, DEFAULT_REPS, 77);
            let mut disp_blocked = L0Sampler::new(max_level, DEFAULT_REPS, 77);
            for &(k, d) in &updates {
                pred.update(k, d);
                disp.update_dispatch(k, d);
            }
            disp_blocked.update_batch_dispatch(&updates);
            assert_planes_eq(&disp, &pred, "clamp/zero/dup scalar");
            assert_planes_eq(&disp_blocked, &pred, "clamp/zero/dup blocked");
            assert_eq!(disp.sample(), pred.sample(), "max_level {max_level}");
        }
    }

    #[test]
    fn mode_selected_helpers_route_to_the_right_path() {
        let updates = mixed_updates(0x30de, 90);
        let mut oracle = L0Sampler::new(24, 4, 9);
        for &(k, d) in &updates {
            oracle.update(k, d);
        }
        for mode in [L0Mode::Predicated, L0Mode::Dispatch] {
            let mut scalar = L0Sampler::new(24, 4, 9);
            let mut blocked = L0Sampler::new(24, 4, 9);
            for &(k, d) in &updates {
                scalar.update_with(mode, k, d);
            }
            for chunk in updates.chunks(17) {
                blocked.update_batch_with(mode, chunk);
            }
            assert_planes_eq(&scalar, &oracle, mode.as_str());
            assert_planes_eq(&blocked, &oracle, mode.as_str());
        }
        assert_eq!(L0Mode::default(), L0Mode::Dispatch);
        assert_eq!(L0Mode::parse("predicated"), Some(L0Mode::Predicated));
        assert_eq!(L0Mode::parse("dispatch"), Some(L0Mode::Dispatch));
        assert_eq!(L0Mode::parse("bogus"), None);
    }

    #[test]
    fn update_batch_matches_scalar_updates_at_every_block_size() {
        let updates = mixed_updates(0xb10c, 157);
        let mut scalar = L0Sampler::new(30, DEFAULT_REPS, 5);
        for &(k, d) in &updates {
            scalar.update(k, d);
        }
        for block in [1usize, 2, 7, 16, 64, 157, 400] {
            let mut batched = L0Sampler::new(30, DEFAULT_REPS, 5);
            for chunk in updates.chunks(block) {
                batched.update_batch(chunk);
            }
            batched.update_batch(&[]); // empty block is a no-op
            assert_eq!(batched.count, scalar.count, "block {block}");
            assert_eq!(batched.key_sum_lo, scalar.key_sum_lo, "block {block}");
            assert_eq!(batched.key_sum_hi, scalar.key_sum_hi, "block {block}");
            assert_eq!(batched.fingerprint, scalar.fingerprint, "block {block}");
            assert_eq!(batched.updates_absorbed(), scalar.updates_absorbed());
            assert_eq!(batched.sample(), scalar.sample(), "block {block}");
        }
    }

    #[test]
    fn empty_sampler_returns_none() {
        let s = L0Sampler::new(20, 4, 1);
        assert!(s.sample().is_none());
        assert!(s.support_is_empty());
    }

    #[test]
    fn singleton_support_always_recovered() {
        for seed in 0..20 {
            let mut s = L0Sampler::new(20, 4, seed);
            s.update(12345, 1);
            assert_eq!(s.sample(), Some(12345), "seed {seed}");
        }
    }

    #[test]
    fn deletions_cancel() {
        let mut s = L0Sampler::new(20, 4, 3);
        s.update(7, 1);
        s.update(9, 1);
        s.update(7, -1);
        assert_eq!(s.sample(), Some(9));
        s.update(9, -1);
        assert!(s.sample().is_none());
        assert!(s.support_is_empty());
    }

    #[test]
    fn returns_only_live_keys() {
        // Insert 100 keys, delete the even ones; samples must be odd.
        for trial in 0..50u64 {
            let mut s = L0Sampler::new(30, 6, split_seed(0xdead, trial));
            for k in 0..100u64 {
                s.update(k, 1);
            }
            for k in (0..100u64).step_by(2) {
                s.update(k, -1);
            }
            if let Some(k) = s.sample() {
                assert_eq!(k % 2, 1, "trial {trial} returned deleted key {k}");
            }
        }
    }

    #[test]
    fn failure_rate_is_low_with_reps() {
        let mut failures = 0;
        let trials = 300u64;
        for t in 0..trials {
            let mut s = L0Sampler::new(30, DEFAULT_REPS, split_seed(0xbeef, t));
            for k in 0..64u64 {
                s.update(k * 17 + 1, 1);
            }
            if s.sample().is_none() {
                failures += 1;
            }
        }
        assert!(
            (failures as f64) < trials as f64 * 0.05,
            "{failures}/{trials} failures"
        );
    }

    #[test]
    fn distribution_roughly_uniform() {
        let n_keys = 16u64;
        let trials = 8000u64;
        let mut hits: HashMap<u64, u64> = HashMap::new();
        for t in 0..trials {
            let mut s = L0Sampler::new(30, DEFAULT_REPS, split_seed(0xf00d, t));
            for k in 0..n_keys {
                s.update(k, 1);
            }
            if let Some(k) = s.sample() {
                *hits.entry(k).or_default() += 1;
            }
        }
        let total: u64 = hits.values().sum();
        let expect = total as f64 / n_keys as f64;
        for k in 0..n_keys {
            let h = *hits.get(&k).unwrap_or(&0) as f64;
            assert!(
                (h - expect).abs() / expect < 0.25,
                "key {k}: {h} vs {expect}"
            );
        }
    }

    #[test]
    fn space_usage_scales_with_parameters() {
        let small = L0Sampler::new(10, 2, 1);
        let big = L0Sampler::new(40, 8, 1);
        assert!(big.space_bytes() > small.space_bytes());
        assert!(small.space_bytes() > 0);
    }

    #[test]
    fn large_magnitude_deltas_cancel_in_constant_time() {
        // Non-strict deltas exercise the wrapping-mul fingerprint path:
        // +1000 then -999 leaves net weight +1 and must recover the key.
        let mut s = L0Sampler::new(20, 4, 11);
        s.update(42, 1000);
        s.update(42, -999);
        assert_eq!(s.sample(), Some(42));
        s.update(42, -1);
        assert!(s.sample().is_none());
        assert!(s.support_is_empty());
    }

    #[test]
    fn merge_is_bit_identical_to_sequential_absorption() {
        // Split a strict update sequence across two identically-seeded
        // samplers and merge: every detector plane must match the single
        // sampler bit for bit (linearity), for every split point.
        for seed in 0..10u64 {
            let updates: Vec<(u64, i64)> = (0..60u64)
                .map(|k| (k * 13 + 1, 1))
                .chain((0..30u64).map(|k| (k * 13 + 1, -1)))
                .collect();
            let mut whole = L0Sampler::new(24, 4, seed);
            for &(k, d) in &updates {
                whole.update(k, d);
            }
            for split in [0, 17, 45, updates.len()] {
                let mut a = L0Sampler::new(24, 4, seed);
                let mut b = L0Sampler::new(24, 4, seed);
                for &(k, d) in &updates[..split] {
                    a.update(k, d);
                }
                for &(k, d) in &updates[split..] {
                    b.update(k, d);
                }
                a.merge(&b);
                assert_eq!(a.count, whole.count, "seed {seed} split {split}");
                assert_eq!(a.key_sum_lo, whole.key_sum_lo, "seed {seed} split {split}");
                assert_eq!(a.key_sum_hi, whole.key_sum_hi, "seed {seed} split {split}");
                assert_eq!(
                    a.fingerprint, whole.fingerprint,
                    "seed {seed} split {split}"
                );
                assert_eq!(a.updates_absorbed(), whole.updates_absorbed());
                assert_eq!(a.sample(), whole.sample());
            }
        }
    }

    #[test]
    #[should_panic(expected = "differently-seeded")]
    fn merge_rejects_seed_mismatch() {
        let mut a = L0Sampler::new(10, 2, 1);
        let b = L0Sampler::new(10, 2, 2);
        a.merge(&b);
    }

    /// The independent-draw scheme the shared base draw replaced: two
    /// full keyed hashes per repetition per update. Kept here as the
    /// distributional baseline for the equivalence test below.
    struct IndependentDrawSampler {
        reps: Vec<(SeededHash, SeededHash, Vec<OneSparse>)>,
    }

    impl IndependentDrawSampler {
        fn new(max_level: u32, reps: usize, seed: u64) -> Self {
            IndependentDrawSampler {
                reps: (0..reps)
                    .map(|i| {
                        let s = split_seed(seed, 100 + i as u64);
                        (
                            SeededHash::new(split_seed(s, 0)),
                            SeededHash::new(split_seed(s, 1)),
                            vec![OneSparse::default(); max_level as usize + 1],
                        )
                    })
                    .collect(),
            }
        }

        fn update(&mut self, key: u64, delta: i64) {
            for (level_hash, fp_hash, levels) in &mut self.reps {
                let max = (levels.len() - 1) as u32;
                let lvl = level_hash.geometric_level(key, max);
                let fp = fp_hash.hash64(key);
                for level in levels.iter_mut().take(lvl as usize + 1) {
                    level.update(key, delta, fp);
                }
            }
        }

        fn sample(&self) -> Option<u64> {
            self.reps.iter().find_map(|(_, fp_hash, levels)| {
                for l in (0..levels.len()).rev() {
                    if levels[l].is_zero() {
                        continue;
                    }
                    return levels[l].recover(|key| fp_hash.hash64(key));
                }
                None
            })
        }
    }

    #[test]
    fn shared_draw_distribution_matches_independent_draws() {
        // Equivalence of distribution: on a fixed 16-key support, the
        // shared-base-draw sampler must (a) fail no more often than the
        // independent-draw scheme plus noise margin, and (b) produce a
        // support distribution at least as close to uniform.
        let n_keys = 16u64;
        let trials = 4000u64;
        let mut shared_hits: HashMap<u64, u64> = HashMap::new();
        let mut indep_hits: HashMap<u64, u64> = HashMap::new();
        let (mut shared_fail, mut indep_fail) = (0u64, 0u64);
        for t in 0..trials {
            let seed = split_seed(0x5ab5, t);
            let mut s = L0Sampler::new(30, DEFAULT_REPS, seed);
            let mut r = IndependentDrawSampler::new(30, DEFAULT_REPS, seed);
            for k in 0..n_keys {
                s.update(k * 7 + 3, 1);
                r.update(k * 7 + 3, 1);
            }
            match s.sample() {
                Some(k) => *shared_hits.entry(k).or_default() += 1,
                None => shared_fail += 1,
            }
            match r.sample() {
                Some(k) => *indep_hits.entry(k).or_default() += 1,
                None => indep_fail += 1,
            }
        }
        assert!(
            shared_fail as f64 <= indep_fail as f64 + trials as f64 * 0.01,
            "shared-draw failures {shared_fail} vs independent {indep_fail}"
        );
        let max_dev = |hits: &HashMap<u64, u64>| {
            let total: u64 = hits.values().sum();
            let expect = total as f64 / n_keys as f64;
            (0..n_keys)
                .map(|k| {
                    let h = *hits.get(&(k * 7 + 3)).unwrap_or(&0) as f64;
                    (h - expect).abs() / expect
                })
                .fold(0.0f64, f64::max)
        };
        let (sd, id) = (max_dev(&shared_hits), max_dev(&indep_hits));
        assert!(sd < 0.25, "shared-draw max deviation {sd}");
        assert!(
            sd <= id + 0.1,
            "shared-draw deviation {sd} worse than independent {id}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut s = L0Sampler::new(25, 4, seed);
            for k in 0..50u64 {
                s.update(k * 3, 1);
            }
            s.sample()
        };
        assert_eq!(run(77), run(77));
    }
}
