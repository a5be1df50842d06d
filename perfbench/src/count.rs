//! The `count-insert` and `count-turnstile` workloads: edge-list file →
//! printed estimate through the `sgs count` binary.

use crate::gen::{self, Rng};
use crate::proc;
use crate::report::{json_num, median, more_setups, Outcome};
use crate::Ctx;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Binomial tolerance of the estimate gates, in standard deviations.
/// Each trial returns a triangle with probability exactly
/// `T / (2m)^(3/2)`, so hits ~ Bin(k, p) and a 6σ miss has probability
/// below 1e-8 per check.
pub const TOLERANCE_SIGMAS: f64 = 6.0;

pub const INSERT_N: u32 = 50_000;
pub const INSERT_M: usize = 1_000_000;
pub const INSERT_GAMMA: f64 = 2.3;
/// Expected degree of the heaviest vertex (the hub that skews shards).
pub const INSERT_MAX_DEGREE: f64 = 5_000.0;
pub const INSERT_SHARDS: &str = "2";
pub const SOLO_TRIALS: &str = "300000";
pub const DURABLE_TRIALS: &str = "20000";
pub const QUERY_LINES: usize = 100;

pub const TURNSTILE_N: u32 = 200;
pub const TURNSTILE_M: usize = 8_000;
pub const TURNSTILE_SHARDS: &str = "1";
pub const TURNSTILE_TRIALS: &str = "600";
/// The `count-turnstile` query file: pattern and trials per line. All
/// triangles, so its work (nearly all round-1 ℓ₀ updates) does not
/// depend on the line seeds.
pub const TURNSTILE_QUERIES: [(&str, u64); 4] = [("triangle", 150); 4];

/// One generated graph input and its fingerprint.
pub struct GraphInput {
    pub path: PathBuf,
    pub n: usize,
    pub m: usize,
    pub bytes: usize,
    pub triangles: u64,
}

impl GraphInput {
    fn write(dir: &Path, name: &str, n: usize, edges: &[(u32, u32)]) -> std::io::Result<Self> {
        let text = gen::edge_list_text(edges);
        let path = dir.join(name);
        std::fs::write(&path, &text)?;
        Ok(GraphInput {
            path,
            n,
            m: edges.len(),
            bytes: text.len(),
            triangles: 0,
        })
    }

    /// The fingerprint note printed with the results.
    pub fn note(&self, what: &str) -> String {
        format!(
            "{{\"input\": \"{what}\", \"n\": {}, \"m\": {}, \"bytes\": {}, \"triangles\": {}}}",
            self.n, self.m, self.bytes, self.triangles
        )
    }

    /// Check a printed triangle estimate against the exact count:
    /// `m` must match and the hits must lie within the binomial
    /// tolerance of `k · T/(2m)^(3/2)`.
    pub fn check_triangles(&self, est: &Estimate, expected_triangles: u64) -> Result<(), String> {
        if est.m != Some(self.m) && est.m.is_some() {
            return Err(format!("m={:?}, input has {}", est.m, self.m));
        }
        let p = (expected_triangles as f64 / (2.0 * self.m as f64).powf(1.5)).min(1.0);
        let k = est.trials as f64;
        let mean = k * p;
        let sd = (k * p * (1.0 - p)).sqrt();
        let dev = (est.hits as f64 - mean).abs();
        if dev <= TOLERANCE_SIGMAS * sd + 1.0 {
            Ok(())
        } else {
            Err(format!(
                "hits {}/{} but exact count {expected_triangles} expects {mean:.1} ± {:.1}",
                est.hits,
                est.trials,
                TOLERANCE_SIGMAS * sd + 1.0
            ))
        }
    }
}

/// One estimate line as `sgs count --bits` prints it.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    pub pattern: String,
    pub hits: u64,
    pub trials: u64,
    pub m: Option<usize>,
    pub bits: String,
}

/// Parse `#<pattern> ≈ <est>   (hits H/T, ...m=M, ...) bits=<hex>`.
pub fn parse_estimate(line: &str) -> Option<Estimate> {
    let pattern = line
        .strip_prefix('#')?
        .split_whitespace()
        .next()?
        .to_string();
    let hits_part = line.split("hits ").nth(1)?;
    let (hits, rest) = hits_part.split_once('/')?;
    let trials: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    let m = line.split(" m=").nth(1).and_then(|s| {
        s.chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .ok()
    });
    let bits = line.split("bits=").nth(1)?.trim().to_string();
    Some(Estimate {
        pattern,
        hits: hits.parse().ok()?,
        trials: trials.parse().ok()?,
        m,
        bits,
    })
}

/// The estimate lines of one `sgs count` run.
pub fn estimates(run: &proc::Run) -> Vec<Estimate> {
    run.stdout
        .lines()
        .filter(|l| l.starts_with('#'))
        .filter_map(parse_estimate)
        .collect()
}

/// Run `sgs` and return it only when it exited 0.
pub fn sgs(ctx: &Ctx, args: &[&str]) -> Result<proc::Run, String> {
    let run = proc::run(&ctx.sgs, args, &ctx.work).map_err(|e| format!("spawn: {e}"))?;
    if run.ok() {
        Ok(run)
    } else {
        Err(format!(
            "exit {:?}: {}",
            run.code,
            run.stderr.lines().last().unwrap_or("")
        ))
    }
}

/// Run a one-estimate shape and return its run and parsed estimate.
pub fn solo(ctx: &Ctx, args: &[&str]) -> Result<(proc::Run, Estimate), String> {
    let run = sgs(ctx, args)?;
    let est = estimates(&run)
        .into_iter()
        .next()
        .ok_or_else(|| format!("no estimate line in {:?}", run.stdout))?;
    Ok((run, est))
}

/// One line of a `--queries` file.
pub struct QueryLine {
    pub pattern: &'static str,
    pub trials: u64,
    pub seed: u64,
    pub relaxed: bool,
}

impl QueryLine {
    pub fn text(&self) -> String {
        format!(
            "{} trials={} seed={}{}",
            self.pattern,
            self.trials,
            self.seed,
            if self.relaxed { " relaxed" } else { "" }
        )
    }
}

/// The `count-insert` query file: triangle, C4, C5, diamond and P4 in
/// turn on a ladder from 500 to 4000 trials (the same total work for
/// every seed), every fourth line relaxed, each with its own seed. Line
/// `probe` carries the run seed so its answer can be checked against a
/// solo `sgs count` (which shuffles the edge list with its own seed).
pub fn query_lines(rng: &mut Rng, run_seed: u64, probe: usize) -> Vec<QueryLine> {
    const PATTERNS: [&str; 5] = ["triangle", "C4", "C5", "diamond", "P4"];
    (0..QUERY_LINES)
        .map(|i| {
            let trials = 500 + (3500 * i / (QUERY_LINES - 1)) as u64;
            let seed = rng.next_u64() >> 1;
            QueryLine {
                pattern: PATTERNS[i % PATTERNS.len()],
                trials,
                seed: if i == probe { run_seed } else { seed },
                relaxed: i % 4 == 3,
            }
        })
        .collect()
}

/// The `count-turnstile` query file, built like [`query_lines`] from
/// [`TURNSTILE_QUERIES`]; turnstile lines are never relaxed.
fn turnstile_query_lines(rng: &mut Rng, run_seed: u64, probe: usize) -> Vec<QueryLine> {
    TURNSTILE_QUERIES
        .iter()
        .enumerate()
        .map(|(i, &(pattern, trials))| {
            let seed = rng.next_u64() >> 1;
            QueryLine {
                pattern,
                trials,
                seed: if i == probe { run_seed } else { seed },
                relaxed: false,
            }
        })
        .collect()
}

/// A count workload's inputs: the edge list and the query file.
pub struct CountInputs {
    pub graph: GraphInput,
    pub queries: Vec<QueryLine>,
    pub queries_path: PathBuf,
    /// The query line that carries the run seed.
    pub probe: usize,
}

fn write_queries(ctx: &Ctx, queries: &[QueryLine]) -> std::io::Result<PathBuf> {
    let path = ctx.work.join("queries.txt");
    let text: String = queries.iter().map(|q| q.text() + "\n").collect();
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Generate and write the `count-insert` inputs (no oracle yet).
pub fn insert_inputs(ctx: &Ctx) -> std::io::Result<CountInputs> {
    let mut rng = Rng::new(ctx.seed);
    let edges = gen::chung_lu(
        INSERT_N,
        INSERT_M,
        INSERT_GAMMA,
        INSERT_MAX_DEGREE,
        &mut rng,
    );
    let graph = GraphInput::write(&ctx.work, "powerlaw.txt", INSERT_N as usize, &edges)?;
    let probe = rng.below(QUERY_LINES as u64) as usize;
    let queries = query_lines(&mut rng, ctx.seed, probe);
    Ok(CountInputs {
        graph,
        queries_path: write_queries(ctx, &queries)?,
        queries,
        probe,
    })
}

/// Generate and write the `count-turnstile` inputs (no oracle yet).
pub fn turnstile_inputs(ctx: &Ctx) -> std::io::Result<CountInputs> {
    let mut rng = Rng::new(ctx.seed ^ 0x7e57);
    let edges = gen::gnm(TURNSTILE_N, TURNSTILE_M, &mut rng);
    let graph = GraphInput::write(&ctx.work, "gnm.txt", TURNSTILE_N as usize, &edges)?;
    let probe = rng.below(TURNSTILE_QUERIES.len() as u64) as usize;
    let queries = turnstile_query_lines(&mut rng, ctx.seed, probe);
    Ok(CountInputs {
        graph,
        queries_path: write_queries(ctx, &queries)?,
        queries,
        probe,
    })
}

/// Exact triangle count of an input file's graph, read back from disk so
/// the oracle sees exactly what `sgs` parses.
pub fn exact_triangles(input: &mut GraphInput) {
    let text = std::fs::read_to_string(&input.path).expect("input was just written");
    let edges: Vec<(u32, u32)> = text
        .lines()
        .map(|l| {
            let mut t = l
                .split_whitespace()
                .map(|x| x.parse::<u32>().expect("u32 id"));
            (t.next().expect("u"), t.next().expect("v"))
        })
        .collect();
    input.triangles = gen::triangles(input.n, &edges);
}

/// The `sgs count` argument vectors of one count workload.
pub struct CountShapes {
    /// `--turnstile` or nothing, then `--shards N`.
    model: Vec<String>,
    /// The solo shape: one triangle estimate.
    pub solo: Vec<String>,
    /// The query-file shape.
    pub queries: Vec<String>,
}

impl CountShapes {
    fn new(ctx: &Ctx, inputs: &CountInputs, turnstile: bool, shards: &str, trials: &str) -> Self {
        let mut model: Vec<String> = Vec::new();
        if turnstile {
            model.push("--turnstile".into());
        }
        model.extend(["--shards".to_string(), shards.to_string()]);
        let base = |extra: &[&str]| -> Vec<String> {
            let mut v = vec!["count".to_string(), "--edges".to_string()];
            v.push(inputs.graph.path.to_string_lossy().into_owned());
            v.extend(model.iter().cloned());
            v.extend(["--seed".to_string(), ctx.seed.to_string(), "--bits".into()]);
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        CountShapes {
            solo: base(&["--pattern", "triangle", "--trials", trials]),
            queries: base(&["--queries", &inputs.queries_path.to_string_lossy()]),
            model,
        }
    }

    pub fn insert(ctx: &Ctx, inputs: &CountInputs) -> Self {
        Self::new(ctx, inputs, false, INSERT_SHARDS, SOLO_TRIALS)
    }

    pub fn turnstile(ctx: &Ctx, inputs: &CountInputs) -> Self {
        Self::new(ctx, inputs, true, TURNSTILE_SHARDS, TURNSTILE_TRIALS)
    }

    /// The solo shape with `trials` in place of its trial count.
    fn solo_with_trials(&self, trials: &str) -> Vec<String> {
        let mut v = self.solo.clone();
        let at = v
            .iter()
            .position(|a| a == "--trials")
            .expect("solo has --trials")
            + 1;
        v[at] = trials.to_string();
        v
    }

    /// `query` run alone, as the query file asks for it.
    fn alone(&self, inputs: &CountInputs, q: &QueryLine) -> Vec<String> {
        let mut v = vec!["count".to_string(), "--edges".to_string()];
        v.push(inputs.graph.path.to_string_lossy().into_owned());
        v.extend(self.model.iter().cloned());
        v.extend(
            [
                "--pattern",
                q.pattern,
                "--trials",
                &q.trials.to_string(),
                "--seed",
                &q.seed.to_string(),
                "--bits",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        if q.relaxed {
            v.push("--relaxed".into());
        }
        v
    }

    /// The `count-insert` durable shape: a checkpointed solo triangle
    /// count into `dir`.
    pub fn durable(&self, dir: &Path) -> Vec<String> {
        let mut v = self.plain();
        v.extend([
            "--checkpoint-dir".to_string(),
            dir.to_string_lossy().into_owned(),
        ]);
        v
    }

    /// The durable shape without `--checkpoint-dir`: its bits must match.
    pub fn plain(&self) -> Vec<String> {
        self.solo_with_trials(DURABLE_TRIALS)
    }
}

pub fn refs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

/// Every query line must be answered, in order, and the triangle lines
/// must meet the binomial tolerance.
fn check_query_answers(
    inputs: &CountInputs,
    ests: &[Estimate],
    expected: u64,
) -> Result<(), String> {
    if ests.len() != inputs.queries.len() {
        return Err(format!(
            "{} answers for {} queries",
            ests.len(),
            inputs.queries.len()
        ));
    }
    for (q, e) in inputs.queries.iter().zip(ests) {
        if e.trials != q.trials || !e.pattern.eq_ignore_ascii_case(q.pattern) {
            return Err(format!("answer {e:?} does not match query '{}'", q.text()));
        }
        if q.pattern == "triangle" {
            inputs.graph.check_triangles(e, expected)?;
        }
    }
    Ok(())
}

/// Set a count workload up as often as [`more_setups`] asks and return
/// its inputs, the shapes and the median set-up time. One set-up generates and
/// writes the inputs into a fresh work directory, then makes one cold
/// `sgs count --trials 1` of the solo shape: process start, parse, stream
/// build and the three passes with a single query. That run also warms
/// the page cache for the timed runs.
fn set_up(
    ctx: &Ctx,
    what: &str,
    make: fn(&Ctx) -> std::io::Result<CountInputs>,
    shapes: fn(&Ctx, &CountInputs) -> CountShapes,
    out: &mut Outcome,
) -> Result<(CountInputs, CountShapes, f64), String> {
    let mut took = Vec::new();
    loop {
        let _ = std::fs::remove_dir_all(&ctx.work);
        std::fs::create_dir_all(&ctx.work).map_err(|e| format!("work dir: {e}"))?;
        let t = Instant::now();
        let inputs = make(ctx).map_err(|e| format!("writing inputs: {e}"))?;
        let shapes = shapes(ctx, &inputs);
        let first = sgs(ctx, &refs(&shapes.solo_with_trials("1")));
        took.push(t.elapsed().as_secs_f64());
        if !out.check(&format!("{what} set-up run"), first.map(|_| ())) {
            return Err(format!("{what}: sgs count failed during set-up"));
        }
        if !more_setups(&took) {
            return Ok((inputs, shapes, median(&took)));
        }
    }
}

/// One repetition of the timed shapes.
struct Rep {
    solo: Duration,
    solo_rss_kib: u64,
    answers_per_s: f64,
}

/// The timed region of a count workload: solo then query file, repeated
/// until `--seconds` have passed (at least once). Every answer is
/// checked; returns the repetitions that passed every check and the
/// query-file answers of the last one.
fn timed_reps(
    ctx: &Ctx,
    what: &str,
    inputs: &CountInputs,
    shapes: &CountShapes,
    expected: u64,
    out: &mut Outcome,
) -> (Vec<Rep>, Vec<Estimate>) {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut answers = Vec::new();
    let mut tries = 0;
    while tries == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        tries += 1;
        let mut rep = Rep {
            solo: Duration::ZERO,
            solo_rss_kib: 0,
            answers_per_s: 0.0,
        };
        let solo_ok = out.check(
            &format!("{what} solo"),
            solo(ctx, &refs(&shapes.solo)).and_then(|(run, est)| {
                rep.solo = run.wall;
                rep.solo_rss_kib = run.max_rss_kib;
                inputs.graph.check_triangles(&est, expected)
            }),
        );
        let queries_ok = out.check(
            &format!("{what} queries"),
            sgs(ctx, &refs(&shapes.queries)).and_then(|run| {
                answers = estimates(&run);
                rep.answers_per_s = answers.len() as f64 / run.wall.as_secs_f64();
                check_query_answers(inputs, &answers, expected)
            }),
        );
        if solo_ok && queries_ok {
            reps.push(rep);
        } else if reps.is_empty() {
            break;
        }
    }
    (reps, answers)
}

/// Report the end-to-end metrics of a count workload.
fn report(setup_s: f64, reps: &[Rep], out: &mut Outcome) {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    out.metric("setup_s", setup_s, "s");
    out.metric("answer_ms", med(&|r| r.solo.as_secs_f64() * 1e3), "ms");
    out.metric("answers_per_s", med(&|r| r.answers_per_s), "1/s");
    out.metric(
        "peak_rss_mb",
        med(&|r| r.solo_rss_kib as f64 / 1024.0),
        "MB",
    );
    let list = |f: &dyn Fn(&Rep) -> f64| {
        let v: Vec<String> = reps.iter().map(|r| json_num(f(r))).collect();
        v.join(", ")
    };
    out.notes.push(format!(
        "{{\"repetitions\": {}, \"answer_ms\": [{}], \"answers_per_s\": [{}]}}",
        reps.len(),
        list(&|r| r.solo.as_secs_f64() * 1e3),
        list(&|r| r.answers_per_s)
    ));
}

pub fn run_insert(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (mut inputs, shapes, setup_s) =
        set_up(ctx, "count-insert", insert_inputs, CountShapes::insert, out)?;
    exact_triangles(&mut inputs.graph);
    out.notes.push(inputs.graph.note("count-insert powerlaw"));
    let expected = ctx.expected(inputs.graph.triangles);

    let (reps, answers) = timed_reps(ctx, "count-insert", &inputs, &shapes, expected, out);
    if reps.is_empty() {
        return Err("no repetition completed".into());
    }
    // Gates outside the timed region.
    out.check(
        "queries answer equals a solo run",
        gate_query_probe(ctx, &inputs, &shapes, &answers),
    );
    out.check(
        "durable estimate within tolerance, bits equal the plain run's",
        gate_durable(ctx, &inputs, &shapes, expected),
    );
    report(setup_s, &reps, out);
    Ok(())
}

pub fn run_turnstile(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (mut inputs, shapes, setup_s) = set_up(
        ctx,
        "count-turnstile",
        turnstile_inputs,
        CountShapes::turnstile,
        out,
    )?;
    exact_triangles(&mut inputs.graph);
    out.notes.push(inputs.graph.note("count-turnstile gnm"));
    let expected = ctx.expected(inputs.graph.triangles);

    let (reps, answers) = timed_reps(ctx, "count-turnstile", &inputs, &shapes, expected, out);
    if reps.is_empty() {
        return Err("no repetition completed".into());
    }
    out.check(
        "queries answer equals a solo run",
        gate_query_probe(ctx, &inputs, &shapes, &answers),
    );
    report(setup_s, &reps, out);
    Ok(())
}

/// The durable shape (`--checkpoint-dir` into a fresh directory) must
/// meet the tolerance and print the same bits as the plain run.
fn gate_durable(
    ctx: &Ctx,
    inputs: &CountInputs,
    shapes: &CountShapes,
    expected: u64,
) -> Result<(), String> {
    let dir = ctx.work.join("checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let durable = solo(ctx, &refs(&shapes.durable(&dir)));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, durable) = durable?;
    inputs.graph.check_triangles(&durable, expected)?;
    let (_, plain) = solo(ctx, &refs(&shapes.plain()))?;
    if durable.bits == ctx.expected_bits(&plain.bits) {
        Ok(())
    } else {
        Err(format!(
            "durable bits={} plain bits={}",
            durable.bits, plain.bits
        ))
    }
}

/// The probe line's multiplexed answer must be byte-identical to the
/// same query run alone.
fn gate_query_probe(
    ctx: &Ctx,
    inputs: &CountInputs,
    shapes: &CountShapes,
    ests: &[Estimate],
) -> Result<(), String> {
    let q = &inputs.queries[inputs.probe];
    let mux = ests.get(inputs.probe).ok_or("probe line has no answer")?;
    let (_, alone) = solo(ctx, &refs(&shapes.alone(inputs, q)))?;
    if mux.bits == ctx.expected_bits(&alone.bits) {
        Ok(())
    } else {
        Err(format!(
            "'{}': multiplexed bits={} solo bits={}",
            q.text(),
            mux.bits,
            alone.bits
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cli_and_query_estimates() {
        let e = parse_estimate(
            "#triangle ≈ 3026417.0   (hits 321/300000, rho=3/2, 3 passes, m=1000000, \
             2 shards, block 128, reservoir skip) bits=414716f88301574a",
        )
        .unwrap();
        assert_eq!((e.hits, e.trials, e.m), (321, 300000, Some(1_000_000)));
        assert_eq!(e.bits, "414716f88301574a");
        let q =
            parse_estimate("#C5 ≈ 0.0   (hits 0/3092, seed 1099) bits=0000000000000000").unwrap();
        assert_eq!((q.pattern.as_str(), q.trials, q.m), ("C5", 3092, None));
    }
}
