//! Execution policy: **injected** thread/pinning decisions for the
//! sharded and broadcast executors.
//!
//! Until PR 7 every executor decided "threads or not" by reading the
//! `SGS_SHARD_THREADS` environment variable at pass time. That put a
//! process-global mutable toggle on the hot path, and — worse — forced
//! the test suite to `set_var`/`remove_var` around assertions, which is
//! undefined behavior on glibc once the parallel test harness itself is
//! multi-threaded. Policy is now a plain value the caller passes in the
//! engine (`Engine::Sharded(policy)`, or `BroadcastOpts::policy`):
//!
//! * **Library layers never read the environment.** The executors and
//!   benches take an [`ExecPolicy`]; tests exercise both schedules by
//!   passing [`ExecPolicy::serial`] / [`ExecPolicy::threaded`] directly.
//! * **The CLI is the only env parse.** `sgs` maps `SGS_SHARD_THREADS`
//!   (`0`/`1`, unset = auto) to a policy once at startup via
//!   [`ExecPolicy::from_env`], preserving the variable's documented
//!   behavior for operators.
//! * **Pinning is policy too.** [`ExecPolicy::pin`] asks persistent
//!   shard workers ([`crate::runtime::ShardRuntime`]) to bind themselves
//!   to cores with raw `sched_setaffinity` — no external crates; a
//!   silent no-op on non-Linux targets and on hosts that refuse the
//!   syscall. Pinning affects *where* work runs, never *what* it
//!   computes, so every equivalence guarantee is unaffected.
//! * **The `f1` bank uses the cores the shard workers leave.** A
//!   turnstile pass may split each ℓ₀ bank sweep
//!   ([`sgs_stream::l0::BankFeed`]) across
//!   [`ExecPolicy::bank_threads`] threads per shard: every core at one
//!   shard, one thread under [`ThreadMode::Serial`]. The helpers are
//!   scoped threads that live for one sweep and are never pinned.

/// How the executors schedule their shard workers and the helper
/// threads of an `f1` bank sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ThreadMode {
    /// Thread when the host has more than one core (the pre-PR-7
    /// unset-env behavior); bank sweeps use the cores the shard
    /// workers leave free.
    #[default]
    Auto,
    /// Always run the deterministic single-thread schedule (inline
    /// shard loop / cooperative ring round-robin), with every bank
    /// sweep on its shard's thread.
    Serial,
    /// Always run the threaded schedule, even on one core, and split
    /// bank sweeps in at least two — the test suite's way of
    /// exercising the parallel paths everywhere.
    Threaded,
}

/// Injected execution policy for one run: scheduling mode plus worker
/// core-pinning. The answers a pass produces are identical under every
/// policy — this value only decides *where* the work runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Thread-or-not decision, for shard workers and bank sweeps alike.
    pub mode: ThreadMode,
    /// Pin persistent shard workers round-robin over the host's cores
    /// (Linux only; ignored by the scoped-thread and serial paths,
    /// which have no long-lived workers worth binding, and never
    /// applied to the scoped helper threads of a bank sweep).
    pub pin: bool,
}

impl ExecPolicy {
    /// Host-adaptive default (thread iff multi-core), no pinning.
    pub fn auto() -> Self {
        ExecPolicy::default()
    }

    /// Force the single-thread schedule.
    pub fn serial() -> Self {
        ExecPolicy {
            mode: ThreadMode::Serial,
            pin: false,
        }
    }

    /// Force the threaded schedule (unpinned).
    pub fn threaded() -> Self {
        ExecPolicy {
            mode: ThreadMode::Threaded,
            pin: false,
        }
    }

    /// Same policy with worker core-pinning requested.
    pub fn with_pin(mut self) -> Self {
        self.pin = true;
        self
    }

    /// Whether a pass with `parties` independent workers should use the
    /// threaded schedule under this policy. One party never threads —
    /// there is nothing to overlap.
    pub fn use_threads(&self, parties: usize) -> bool {
        if parties <= 1 {
            return false;
        }
        match self.mode {
            ThreadMode::Serial => false,
            ThreadMode::Threaded => true,
            ThreadMode::Auto => host_cores() > 1,
        }
    }

    /// Threads each shard's turnstile pass may sweep its `f1` ℓ₀ bank
    /// on, its own thread included, when a pass runs `shards` shards:
    /// 1 under [`ThreadMode::Serial`], `max(1, host cores ÷ shards)`
    /// under [`ThreadMode::Auto`] (every core at one shard, one thread
    /// per shard once the shard workers fill the host), and
    /// `max(2, host cores ÷ shards)` under [`ThreadMode::Threaded`].
    /// Never 0. Passes ask once, when they start.
    pub fn bank_threads(&self, shards: usize) -> usize {
        let free = host_cores() / shards.max(1);
        match self.mode {
            ThreadMode::Serial => 1,
            ThreadMode::Auto => free.max(1),
            ThreadMode::Threaded => free.max(2),
        }
    }

    /// Map the operator-facing `SGS_SHARD_THREADS` variable (`0` = serial,
    /// `1` = threaded, unset/other = auto) to a policy. **CLI layer
    /// only** — library code takes the resulting value; nothing below
    /// the binary reads the environment.
    pub fn from_env() -> Self {
        match std::env::var("SGS_SHARD_THREADS").ok().as_deref() {
            Some("0") => ExecPolicy::serial(),
            Some("1") => ExecPolicy::threaded(),
            _ => ExecPolicy::auto(),
        }
    }
}

/// The host's available parallelism (1 when unknown), read once per
/// process: `available_parallelism` reads cgroup files, which took
/// 21 µs a call (55–90 µs for a process's first) on a 2-vCPU Linux host.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// The host's available memory in bytes — `MemAvailable` from
/// `/proc/meminfo`, read afresh on every call (it changes as the process
/// and its neighbours allocate). `None` where that cannot be read.
pub fn available_memory() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    kib.checked_mul(1024)
}

/// Bind the calling thread to one CPU. Returns whether the kernel
/// accepted the mask; `false` (and no effect) on non-Linux targets, on
/// out-of-range cores, and when the syscall is refused (containers with
/// restricted affinity). Purely a placement hint — correctness never
/// depends on it.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(core: usize) -> bool {
    // `cpu_set_t` is 1024 bits; build the single-core mask as u64 words
    // and hand it straight to the raw syscall wrapper that glibc (and
    // musl) already export — std links libc, so no new dependency.
    const WORDS: usize = 1024 / 64;
    if core >= 1024 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[core / 64] = 1u64 << (core % 64);
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // pid 0 = the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Non-Linux stub: pinning is a silent no-op.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_modes_ignore_host_shape() {
        for parties in [2usize, 4, 16] {
            assert!(!ExecPolicy::serial().use_threads(parties));
            assert!(ExecPolicy::threaded().use_threads(parties));
        }
    }

    #[test]
    fn one_party_never_threads() {
        for policy in [
            ExecPolicy::auto(),
            ExecPolicy::serial(),
            ExecPolicy::threaded(),
            ExecPolicy::threaded().with_pin(),
        ] {
            assert!(!policy.use_threads(1));
            assert!(!policy.use_threads(0));
        }
    }

    #[test]
    fn auto_follows_host_cores() {
        assert_eq!(
            ExecPolicy::auto().use_threads(4),
            host_cores() > 1,
            "auto mode must mirror available_parallelism"
        );
    }

    #[test]
    fn bank_threads_follow_mode_and_shard_count() {
        let cores = host_cores();
        for shards in [0usize, 1, 2, 3, 4, 16, 1024] {
            assert_eq!(ExecPolicy::serial().bank_threads(shards), 1);
            assert_eq!(
                ExecPolicy::auto().bank_threads(shards),
                (cores / shards.max(1)).max(1),
                "auto at {shards} shards"
            );
            let threaded = ExecPolicy::threaded().bank_threads(shards);
            assert!(threaded >= 2, "threaded at {shards} shards");
            assert!(threaded >= ExecPolicy::auto().bank_threads(shards));
            // Pinning changes where shard workers run, not the budget.
            assert_eq!(
                ExecPolicy::auto().with_pin().bank_threads(shards),
                ExecPolicy::auto().bank_threads(shards)
            );
        }
        assert_eq!(ExecPolicy::auto().bank_threads(1), cores);
        assert_eq!(ExecPolicy::threaded().bank_threads(1), cores.max(2));
    }

    #[test]
    fn pinning_to_current_core_or_rejection_is_clean() {
        // On a permissive Linux host pinning core 0 succeeds; sandboxes
        // may refuse the syscall, and non-Linux always reports false.
        // Either way the call must not panic and must tell the truth —
        // a `true` here means the thread really is bound (re-binding to
        // the same core again must then also succeed).
        let first = pin_current_thread(0);
        if first {
            assert!(pin_current_thread(0));
        }
        assert!(!pin_current_thread(100_000), "out-of-range core rejected");
    }
}
