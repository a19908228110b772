//! Batched structure-of-arrays loss-curve fitting — the production
//! fitter.
//!
//! [`fit_batch`] fits up to [`LANES`] jobs at once. Each job walks the
//! same β₂ candidate trajectory as [`LossCurveFitter::fit`] (32-point
//! grid, golden-section refinement, final midpoint), while the numeric
//! work — regression-row construction, Gram products, Lawson–Hanson
//! dual vectors, residual accumulation — runs as fixed-width lane-major
//! passes over structure-of-arrays buffers. The inner loops are written
//! so the compiler can vectorize across lanes (no cross-lane
//! reductions, branchless selects, `[f64; LANES]` accumulators), which
//! is where the speedup comes from. The two passes that stream the
//! samples (row build + Gram/RHS, and the dual sweep) are written once
//! over a lane value type whose ops are lane-wise IEEE operations, and
//! on CPUs with avx512f [`fit_batch`] runs an avx512f compilation of the
//! same wave body, where each lane op is one `zmm` instruction.
//! Per-job *control* (grid walk, memoization, golden-section branching,
//! NNLS active-set changes) stays scalar.
//!
//! # Semantics
//!
//! Every job's result is bit-identical to `LossCurveFitter::fit` on the
//! same raw history — the same coefficient bits, the same error
//! variants — whatever the session carried in, and whatever else its
//! group holds. `fit` is the oracle; the `batch_equivalence` suite checks
//! one-job and mixed batches against it across growing histories,
//! session reuse across unrelated series, and degenerate inputs.
//! Telemetry counters are a function of each job's own inputs, so they
//! do not depend on how jobs are grouped into batches or how many lanes
//! a job gets; they are *not*
//! `fit`'s, because the memo below skips duplicate solves.
//!
//! Three shortcuts against `fit` make a refit cheap, and none of them
//! can change a result:
//!
//! * **Incremental preprocessing.** `stable_prefix` is the caller's
//!   guarantee that `raw[..stable_prefix]` equals the prefix the same
//!   session saw last time; only the tail is re-preprocessed. Passing 0
//!   disables reuse, never correctness.
//! * **Memo keyed by β₂ bits.** Within one fit, duplicate candidates
//!   (the degenerate `hi == 0` grid, golden-section re-evaluations)
//!   hit a memo keyed by the candidate's bit pattern. The fit is a
//!   function of `(samples, β₂)`, so a bit-equal key is the same
//!   outcome. Only exact evaluations are stored, and the memo is
//!   cleared per fit because the samples may have changed. Nearly every
//!   lookup (each grid step, golden-section step and look-ahead
//!   candidate) misses, so a per-walk 1024-bit presence filter over the
//!   keys answers a miss without scanning the memo.
//! * **Warm start plus abandonment.** The previous fit's best grid
//!   index is evaluated first, and its residual bounds the scan: every
//!   other grid candidate abandons once its residual strictly exceeds
//!   both that bound and the best so far. The warm start is only a
//!   hint. The full grid is still walked (the warm index hits the
//!   memo), so a stale hint costs one early evaluation and nothing
//!   else. Abandonment is selection-exact: residual terms `e·e` are
//!   non-negative and never NaN (predictions are finite or ±∞), so
//!   partial sums are monotone, and a candidate whose sum exceeds the
//!   best cannot win `fit`'s strict `<` or change its tie-breaking.
//!   Abandoned candidates are not memoized. `fit.warm_start_hits`
//!   counts fits whose warm index wins the grid again. Look-ahead
//!   (below) evaluates a candidate under a bound `W` that may be
//!   looser than the bound `B` the walk asks it under when it gets
//!   there, so every outcome is re-judged against `B` as it is
//!   consumed: a full residual above a finite `B` becomes abandoned
//!   (a full residual is exact under any bound), and an abandoned one
//!   is reused only when `B` is finite and `B ≤ W` (its partial sum
//!   already exceeds `W`); otherwise the walk evaluates it again.
//!   Golden-section probes and the final midpoint always run exact.
//!
//! # Bit-identity of the passes
//!
//! * **Job walks own lanes; the walk alone decides.** Each job's walk
//!   is a resumable transcription of `fit`'s candidate walk that
//!   *requests* one β₂ evaluation at a time (`JobWalk::next_request`)
//!   and consumes its outcome (`JobWalk::consume`). The lanes of a
//!   group are dealt round-robin to its live jobs (those past the
//!   prologue checks), and a gather copies a job's samples into every
//!   lane it owns; a group of [`LANES`] live jobs gives each job one
//!   lane. When a walk finishes while others still run, its lanes are
//!   dealt round-robin to those and re-gathered (`BatchScratch::
//!   redeal`), after every walk has consumed the last wave and with
//!   every request cleared, so no outcome is matched to a lane's new
//!   owner. A job fills its lanes with its frontier request plus
//!   evaluations its walk will ask for next, neither memoized nor
//!   already requested: the next grid candidates, under the frontier's
//!   bound (at least every later one, since the best residual only
//!   falls), or the golden-section probes of the next iterations.
//!   Probe positions depend only on which branch each iteration takes,
//!   never on residual values, so the probes of any branch sequence
//!   are known in advance. The walk predicts the sequence from the
//!   vertex of the parabola through the three lowest residuals in its
//!   memo and fills its lanes along that one path, so seven lanes
//!   advance seven iterations per wave while the prediction holds.
//!   Where the vertex is undefined, and past iteration
//!   `PATH_ITERS`, where residuals near the optimum differ by little
//!   more than rounding, it falls back to both branches breadth first
//!   (and the final midpoint past the last iteration). Each wave's
//!   outcomes are the look-ahead buffer: at the start of the next wave
//!   the walk consumes them in its own order, by β₂ bits and re-judged
//!   against its own bound, until it asks for one no lane computed —
//!   the new frontier. Unconsumed outcomes, a mispredicted path's
//!   included, are dropped. Memo hits, degenerate `hi == 0` grids and
//!   divergent golden-section paths therefore cannot desynchronize
//!   anything: a lane with no evaluation to run sits the wave out, and
//!   the prediction moves only the wave count.
//! * **Counters follow consumption.** A wave returns each lane's NNLS
//!   facts (`nnls.solves`, `nnls.fit_failures`, `nnls.iterations`)
//!   instead of recording them, and the walk records them when it
//!   consumes the outcome, so look-ahead that goes unused counts
//!   nothing. With the re-judging rule, every coefficient, memo entry,
//!   warm index and counter is the one the one-lane walk produces.
//! * **Padding is algebraically inert.** Short histories are padded with
//!   `(k = 0, l = 0.0)` slots. Every candidate has `β₂ ≥ 0`, so a padded
//!   slot's gap `0 − β₂ ≤ 0 ≤ 1e-9` always takes `fit`'s
//!   skip-this-row branch, contributing exactly-`+0.0` terms to every
//!   accumulator. Accumulators never hold `-0.0` (they start at `+0.0`
//!   and `+0.0 + -0.0 = +0.0`), so those terms are bitwise no-ops.
//! * **Rows are recomputed, not cached.** A wave stores no regression
//!   rows: pass A and every full dual sweep rebuild each row from the
//!   gathered `(k, l)` sample and the lane's β₂ with the same operations
//!   in the same order (`row`, in either compilation), so every rebuild
//!   is the same bits. Building a row costs a few lane-wise ops; storing
//!   and re-reading three row arrays cost more, because a wave's passes
//!   are bound by memory traffic, not arithmetic. A skipped row's `r0`
//!   is `r1·k = +0.0·k = +0.0` without a mask, since `k` is a finite
//!   step index ≥ 0.
//! * **Gram caching is exact.** The Lawson–Hanson subproblem Gram/RHS
//!   depend on the rows only, so they are computed once per candidate in
//!   pass A. Each lane drives the active-set step the speed refit also
//!   uses (`nnls::ActiveSet`, a bit-for-bit replay of [`crate::nnls()`]'s
//!   scan and inner loop), and every subproblem solve replays through
//!   `solve_sub2_cached` in O(1) — same accumulation order as
//!   `Matrix::gram`, whose zero-row guards only ever skip exactly-zero
//!   terms.
//! * **Non-finite rows show in the Gram diagonal.** `nnls` fails a
//!   solve when any row holds an ∞ or NaN. Every `g00`/`g11` term is a
//!   square, ≥ 0, so such a row makes `g00` or `g11` non-finite; a lane
//!   whose diagonal is finite therefore has only finite rows. A lane
//!   whose diagonal is not rescans its rows for the exact verdict,
//!   because finite rows can overflow the Gram too, and those lanes
//!   solve as `nnls` does.
//! * **A full dual sweep runs only where the Gram cannot decide.** The
//!   first dual of a wave is pass A's RHS (`x = 0`). After `x` changes, a
//!   lane whose columns are all passive or rejected converges on the spot
//!   (the step is saturated): `nnls`'s scan would find no entering column
//!   whatever the dual holds, and returns without counting anything.
//!   Every other lane reads the next dual only through that scan's
//!   comparisons (is `wᵢ > tolerance`, and which of two candidates is
//!   larger), so it can read them off the Gram-form dual `w′ = rhs − G·x`
//!   from pass A's sums. Every row term is non-negative, so the
//!   dot-product error bound's absolute sums are the Gram and RHS
//!   themselves, and `gram_dual` bounds `|w − w′|` by an `E` that also
//!   covers the rounding of its own evaluation. When every running lane's
//!   comparisons come out the same anywhere in `w′ ± E`
//!   (`ActiveSet::certifies`), the lanes advance on `w′` and no sweep
//!   runs; otherwise the lockstep full sweep runs for all lanes, exactly
//!   as before. Nothing else reads the dual, so coefficients, memo
//!   entries, warm indices and counters keep their bits either way. On
//!   the simulated workloads every check is certified, and a wave streams
//!   its samples twice (pass A and pass C) instead of three times.
//! * **Full-sum abandonment is prefix abandonment.** By the same
//!   monotonicity, the full sum exceeds the bound iff some prefix does,
//!   so the abandonment decision is recoverable from a batched full
//!   pass.

use crate::error::FitError;
use crate::loss_curve::{
    FitSession, LossCurveFitter, LossModel, GRID_POINTS, INV_PHI, REFINE_ITERS,
};
use crate::nnls::{solve_sub2_cached, ActiveSet, Step};
use crate::preprocess::{preprocess_losses_incremental, LossSample, PreprocessScratch};
use optimus_telemetry::Telemetry;

/// Fixed lane width of the SoA passes. Eight f64 lanes fill one AVX-512
/// register (`eval_wave` runs the avx512f compilation of the passes
/// when the CPU has avx512f) or four SSE2 / two AVX2 vectors — wide
/// enough to fill a vector unit, narrow enough that ragged histories
/// within a group waste little padded work.
pub const LANES: usize = 8;

/// One job's inputs to [`fit_batch`].
pub struct BatchFitJob<'a> {
    /// Fitter configuration (preprocessing, telemetry).
    /// Jobs may use *different* fitters; nothing requires a shared
    /// configuration.
    pub fitter: &'a LossCurveFitter,
    /// Raw loss history.
    pub raw: &'a [LossSample],
    /// Length of the prefix of `raw` guaranteed identical to the one
    /// this session saw last time (0 when unsure; see the module docs).
    pub stable_prefix: usize,
    /// The job's fit session (preprocessing state, memo, warm index).
    pub session: &'a mut FitSession,
}

/// Reusable buffers for [`fit_batch`]: the SoA sample buffers plus the
/// lane tables of the group in flight. Create once, pass to every call;
/// the sample vectors grow to the largest group seen and are then
/// reused, and the lane tables are fixed-size, so a warm call does not
/// allocate. Regression rows are never stored: each pass rebuilds them
/// from the samples (module docs).
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Step indices as f64 (`k as f64`, `fit`'s conversion),
    /// lane-major: sample `s` of lane `j` lives at `s * LANES + j`.
    ks: Vec<f64>,
    /// Preprocessed losses, same layout.
    ls: Vec<f64>,
    /// Lane-owner table: lane `j` holds the samples of group job
    /// `owner[j]`.
    owner: [usize; LANES],
    /// Sample count of each lane's owner.
    lens: [usize; LANES],
    /// Normalization scale of each lane's owner.
    scales: [f64; LANES],
    /// The wave's request per lane (`None`: the lane sits it out).
    reqs: [Option<EvalReq>; LANES],
    /// The wave's outcome per lane. Between waves these are the
    /// look-ahead buffers: each walk consumes its lanes' outcomes in
    /// its own order, and whatever it does not consume is dropped.
    outs: [Evaluated; LANES],
    /// The wave's pass A sums (see `pass_a` for why they live here).
    pass_a: PassA,
    /// The wave's last dual, `[w0, w1]`, stored for the same reason.
    dual: [Lanes; 2],
    /// Waves run through this scratch (see [`BatchScratch::waves`]).
    waves: u64,
}

impl BatchScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// SoA waves run through this scratch since it was created. Unlike
    /// the fit's telemetry counters, the count depends on how jobs are
    /// grouped: a job with more lanes needs fewer waves.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Gives lane `j` to group job `k`: its samples, padded with
    /// `(0, 0.0)` up to the group's longest history, its length and its
    /// scale.
    fn gather(&mut self, j: usize, k: usize, samples: &[LossSample], p: &Prologue, max_len: usize) {
        self.owner[j] = k;
        self.lens[j] = p.len;
        self.scales[j] = p.scale;
        for s in 0..max_len {
            let (step, l) = samples
                .get(s)
                .map_or((0.0, 0.0), |&(step, l)| (step as f64, l));
            self.ks[s * LANES + j] = step;
            self.ls[s * LANES + j] = l;
        }
    }

    /// Deals the lanes of jobs whose walk has finished (no `frontier`)
    /// round-robin to the jobs still walking, re-gathering each.
    fn redeal(
        &mut self,
        frontier: &[Option<EvalReq>; LANES],
        samples: &[&[LossSample]; LANES],
        pro: &[Prologue; LANES],
        max_len: usize,
    ) {
        let mut live = [0usize; LANES];
        let mut n_live = 0;
        for (k, f) in frontier.iter().enumerate() {
            if f.is_some() {
                live[n_live] = k;
                n_live += 1;
            }
        }
        if n_live == 0 {
            return;
        }
        let mut turn = 0;
        for j in 0..LANES {
            if frontier[self.owner[j]].is_none() {
                let k = live[turn % n_live];
                turn += 1;
                self.gather(j, k, samples[k], &pro[k], max_len);
            }
        }
    }

    /// Last wave's outcome for group job `k`'s candidate `bits`, with
    /// the abandonment bound it ran under.
    fn answered(&self, k: usize, bits: u64) -> Option<(f64, Evaluated)> {
        (0..LANES).find_map(|j| match self.reqs[j] {
            Some(r) if self.owner[j] == k && r.beta2.to_bits() == bits => {
                Some((r.bound, self.outs[j]))
            }
            _ => None,
        })
    }
}

/// Fits every job and appends to `out` one result per job, in order,
/// each bit-identical to [`LossCurveFitter::fit`] on the job's `raw`
/// history. Jobs are processed in groups of [`LANES`]; results, session
/// state and telemetry do not depend on the grouping.
pub fn fit_batch(
    jobs: &mut [BatchFitJob<'_>],
    scratch: &mut BatchScratch,
    out: &mut Vec<Result<LossModel, FitError>>,
) {
    for group in jobs.chunks_mut(LANES) {
        fit_group(group, scratch, out);
    }
}

/// Per-job prologue facts computed before the wave loop.
#[derive(Default)]
struct Prologue {
    err: Option<FitError>,
    hi: f64,
    scale: f64,
    len: usize,
}

#[cfg(test)]
thread_local! {
    /// Full dual sweeps run on this thread (the free first sweep of a
    /// wave and the certified Gram-form duals are not ones), for the
    /// tests that pin how many the certificate leaves.
    static SWEEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Set by a test to refuse every certificate, so each dual after a
    /// wave's first comes from a full sweep.
    static ALWAYS_SWEEP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Set by a test to make `eval_wave` take the portable body on an
    /// avx512f host.
    static PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Set by a test to invert every branch the golden-section
    /// look-ahead predicts, so its path is wrong wherever it was right.
    static INVERT_PREDICTION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Set by a test to plan every golden-section look-ahead as the
    /// two-branch tree, as if no prediction were defined.
    static NO_PREDICTION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn fit_group(
    group: &mut [BatchFitJob<'_>],
    scratch: &mut BatchScratch,
    out: &mut Vec<Result<LossModel, FitError>>,
) {
    debug_assert!(group.len() <= LANES);

    // Pass 1 — scalar prologue per job, `fit`'s: counter bump,
    // (incremental) preprocessing, distinct-step and min-loss checks.
    // Errors here short-circuit the job without touching its memo or
    // warm index.
    let mut pro: [Prologue; LANES] = Default::default();
    let mut live = [0usize; LANES];
    let mut n_live = 0usize;
    let mut max_len = 0usize;
    for (k, job) in group.iter_mut().enumerate() {
        job.fitter.tel.incr("loss_curve.fits");
        preprocess_losses_incremental(
            job.raw,
            job.fitter.preprocess,
            job.stable_prefix,
            &mut job.session.pre,
        );
        let samples = job.session.pre.samples();
        let scale = job.session.pre.scale();
        let steps_buf = &mut job.session.steps_buf;
        steps_buf.clear();
        steps_buf.extend(samples.iter().map(|&(k, _)| k));
        steps_buf.sort_unstable();
        steps_buf.dedup();
        let distinct = steps_buf.len();
        if distinct < 3 {
            pro[k] = Prologue {
                err: Some(FitError::NotEnoughSamples {
                    got: distinct,
                    need: 3,
                }),
                scale,
                ..Prologue::default()
            };
            continue;
        }
        let min_loss = samples
            .iter()
            .map(|&(_, l)| l)
            .fold(f64::INFINITY, f64::min);
        if !min_loss.is_finite() {
            pro[k] = Prologue {
                err: Some(FitError::NonFiniteInput {
                    context: "loss samples after preprocessing",
                }),
                scale,
                ..Prologue::default()
            };
            continue;
        }
        max_len = max_len.max(samples.len());
        live[n_live] = k;
        n_live += 1;
        pro[k] = Prologue {
            err: None,
            hi: (min_loss - 1e-9).max(0.0),
            scale,
            len: samples.len(),
        };
    }

    // Pass 2 — build the job walks (mutable borrows into each job's
    // session memo + warm index) and keep each job's preprocessed
    // samples for the gathers.
    let mut walks: [Option<JobWalk<'_>>; LANES] = Default::default();
    let mut samples: [&[LossSample]; LANES] = [&[]; LANES];
    for (k, (job, p)) in group.iter_mut().zip(pro.iter_mut()).enumerate() {
        let FitSession {
            pre,
            memo,
            warm_grid_index,
            ..
        } = &mut *job.session;
        let pre: &PreprocessScratch = pre;
        samples[k] = pre.samples();
        walks[k] = Some(JobWalk::new(
            job.fitter,
            memo,
            warm_grid_index,
            p.hi,
            p.err.take(),
        ));
    }

    // Pass 3 — deal the lanes round-robin to the live jobs, so each of
    // n holds ⌊LANES/n⌋ or ⌈LANES/n⌉ (one each in a full group), and
    // gather each job's samples into every lane it owns. Every slot the
    // waves read is written by a gather, so the buffers only grow when a
    // group is longer than any before.
    let width = max_len * LANES;
    for buf in [&mut scratch.ks, &mut scratch.ls] {
        if buf.len() < width {
            buf.resize(width, 0.0);
        }
    }
    scratch.reqs = [None; LANES]; // no look-ahead from the previous group
    if n_live > 0 {
        for j in 0..LANES {
            let k = live[j % n_live];
            scratch.gather(j, k, samples[k], &pro[k], max_len);
        }
    }

    // Wave loop: each walk consumes what its lanes computed last wave,
    // the lanes of walks that finished go to the live ones, and each
    // live walk fills its lanes with its frontier request and
    // look-ahead; one SoA pass evaluates them all.
    let mut frontier: [Option<EvalReq>; LANES] = [None; LANES];
    loop {
        for (k, walk) in walks.iter_mut().flatten().enumerate() {
            frontier[k] = walk.drain(frontier[k], |bits| scratch.answered(k, bits));
        }
        // Every outcome is consumed or dropped now, so no lane's old
        // request can be matched to a new owner (two grids both start
        // at β₂ = 0 and can ask for the same bits).
        scratch.reqs = [None; LANES];
        scratch.redeal(&frontier, &samples, &pro, max_len);
        let mut any = false;
        for (k, walk) in walks.iter().flatten().enumerate() {
            if let Some(req) = frontier[k] {
                walk.plan(req, k, &scratch.owner, &mut scratch.reqs);
                any = true;
            }
        }
        if !any {
            break;
        }
        scratch.waves += 1;
        eval_wave(scratch, max_len);
    }
    for walk in walks.into_iter().flatten() {
        out.push(walk.done.expect("walk finished"));
    }
}

/// One β₂ evaluation wanted by a walk.
#[derive(Clone, Copy, Debug)]
struct EvalReq {
    beta2: f64,
    /// Abandonment bound; `f64::INFINITY` means "exact, never abandon".
    bound: f64,
}

/// Outcome of one wave evaluation for one lane.
#[derive(Clone, Copy, Debug, Default)]
enum WaveOut {
    Fit(LossModel),
    Abandoned,
    #[default]
    Failed,
}

/// The NNLS counters one evaluation owes — `fit_for_beta2`'s: a solve
/// once two rows were kept, a failure on a non-finite row or a failed
/// solve, the iteration count otherwise. They are recorded only when a
/// walk consumes the evaluation, so look-ahead that goes unused counts
/// nothing.
#[derive(Clone, Copy, Debug, Default)]
struct NnlsFacts {
    solved: bool,
    failed: bool,
    iterations: Option<usize>,
}

impl NnlsFacts {
    fn record(self, tel: &Telemetry) {
        if self.solved {
            tel.incr("nnls.solves");
        }
        if self.failed {
            tel.incr("nnls.fit_failures");
        }
        if let Some(n) = self.iterations {
            tel.observe("nnls.iterations", n as f64);
        }
    }
}

/// One lane's evaluation: its outcome and the counters it owes.
#[derive(Clone, Copy, Debug, Default)]
struct Evaluated {
    out: WaveOut,
    facts: NnlsFacts,
}

/// `out`, computed under abandonment bound `ran`, as the walk would
/// have computed it under its own bound `want` — or `None` when that
/// cannot be told without evaluating again. A full residual is exact
/// under any bound; an abandoned one is only known to exceed `ran`.
fn rejudge(out: WaveOut, ran: f64, want: f64) -> Option<WaveOut> {
    match out {
        WaveOut::Fit(m) if want.is_finite() && m.residual_ss > want => Some(WaveOut::Abandoned),
        WaveOut::Abandoned if !(want.is_finite() && want <= ran) => None,
        out => Some(out),
    }
}

/// Golden-section bracket `[a, b]` with interior probes `c < d`.
#[derive(Clone, Copy, Default)]
struct Bracket {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
}

impl Bracket {
    /// One refinement step: keeps `[a, d]` when `f(c) < f(d)` (`left`),
    /// else `[c, b]`. The new probe is `c` (left) or `d` (right). Probe
    /// positions depend only on the branches taken, never on residuals.
    fn narrow(self, left: bool) -> Bracket {
        let Bracket { a, b, c, d } = self;
        if left {
            Bracket {
                a,
                b: d,
                c: d - (d - a) * INV_PHI,
                d: c,
            }
        } else {
            Bracket {
                a: c,
                b,
                c: d,
                d: c + (b - c) * INV_PHI,
            }
        }
    }

    /// The probe [`Bracket::narrow`] just moved.
    fn fresh(self, left: bool) -> f64 {
        if left {
            self.c
        } else {
            self.d
        }
    }

    /// `fit`'s final midpoint.
    fn mid(self) -> f64 {
        (self.a + self.b) / 2.0
    }
}

/// Where a walk currently stands.
/// `*Await` states mean an [`EvalReq`] is outstanding; everything else
/// advances inside [`JobWalk::next_request`] (memo hits included).
#[derive(Clone, Copy)]
enum Phase {
    /// Warm-start evaluation of the carried grid index (if any).
    Warm,
    /// Grid scan; `i` is the next index to process.
    Grid {
        i: usize,
    },
    GridAwait {
        i: usize,
    },
    /// Golden-section init: residual at `c`, then at `d`.
    GoldenC,
    GoldenD,
    /// Top of a golden-section iteration (branch not yet taken).
    GoldenStep,
    /// Branch taken; awaiting the residual of the freshly moved `c`/`d`.
    GoldenNeedC,
    GoldenNeedD,
    /// Final midpoint evaluation.
    Final,
    Done,
}

/// Nodes of the golden-section look-ahead tree a walk enumerates per
/// wave: three full levels (2 + 4 + 8) plus the root.
const TREE: usize = 16;

/// Golden-section iterations the look-ahead predicts a path through
/// before it falls back to the tree. Near the optimum the residuals of
/// neighboring probes differ by little more than rounding: on the
/// benchmark's three refit workloads (seed 17) the predicted branch was
/// right 99.9–100 % of the time in iterations 0–19, 98 % in 20–29 and
/// 67 % in 30–39, and on testbed-dense and sparse-quarter, of paths
/// through 25, 30, 35 or 40 iterations, 30 ran the fewest waves.
const PATH_ITERS: usize = 30;
const _: () = assert!(PATH_ITERS <= REFINE_ITERS);

/// Resumable interpreter of one job's candidate walk: `fit`'s grid scan
/// and golden-section refinement plus the memo and warm start.
struct JobWalk<'a> {
    memo: &'a mut Vec<(u64, Option<LossModel>)>,
    warm_slot: &'a mut Option<usize>,
    tel: &'a Telemetry,
    hi: f64,
    phase: Phase,
    /// Bit pattern of the candidate an outstanding request is for.
    pending_bits: u64,
    best: Option<(f64, usize, LossModel)>,
    warm_idx: Option<usize>,
    warm_bound: f64,
    br: Bracket,
    fc: f64,
    fd: f64,
    iter: usize,
    best_model: Option<LossModel>,
    done: Option<Result<LossModel, FitError>>,
    /// Presence filter over the memo's keys: a bit per `memo_slot`
    /// hash, set by `memo_push`. A clear bit answers a memo miss (nearly
    /// every lookup) without scanning the memo; a set bit scans it.
    seen: [u64; MEMO_FILTER_WORDS],
    /// `(residual, β₂)` of the three lowest finite residuals among the
    /// first `low_seen` memo entries, ascending (`+∞` pads): `vertex`
    /// folds in only the entries added since its last call. Cells, so
    /// the fold can run from `plan`'s shared borrow.
    low: std::cell::Cell<[(f64, f64); 3]>,
    low_seen: std::cell::Cell<usize>,
}

/// Words of `JobWalk::seen`: 1024 bits.
const MEMO_FILTER_WORDS: usize = 16;

/// The `JobWalk::seen` word and bit of a memo key: the top ten bits of
/// its Fibonacci hash.
fn memo_slot(bits: u64) -> (usize, u64) {
    let h = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize;
    (h / 64, 1 << (h % 64))
}

impl<'a> JobWalk<'a> {
    fn new(
        fitter: &'a LossCurveFitter,
        memo: &'a mut Vec<(u64, Option<LossModel>)>,
        warm_slot: &'a mut Option<usize>,
        hi: f64,
        err: Option<FitError>,
    ) -> Self {
        let mut walk = JobWalk {
            tel: &fitter.tel,
            hi,
            phase: Phase::Warm,
            pending_bits: 0,
            best: None,
            warm_idx: None,
            warm_bound: f64::INFINITY,
            br: Bracket::default(),
            fc: f64::INFINITY,
            fd: f64::INFINITY,
            iter: 0,
            best_model: None,
            done: None,
            seen: [0; MEMO_FILTER_WORDS],
            low: std::cell::Cell::new([(f64::INFINITY, 0.0); 3]),
            low_seen: std::cell::Cell::new(0),
            memo,
            warm_slot,
        };
        match err {
            Some(e) => {
                walk.done = Some(Err(e));
                walk.phase = Phase::Done;
            }
            None => {
                // The memo is cleared and the warm index resolved only
                // after the prologue checks pass.
                walk.memo.clear();
                walk.warm_idx = (*walk.warm_slot).filter(|&i| i < GRID_POINTS);
            }
        }
        walk
    }

    fn grid_beta2(&self, i: usize) -> f64 {
        self.hi * i as f64 / (GRID_POINTS - 1) as f64
    }

    fn memo_find(&self, bits: u64) -> Option<Option<LossModel>> {
        let (word, bit) = memo_slot(bits);
        if self.seen[word] & bit == 0 {
            return None;
        }
        self.memo.iter().find(|&&(b, _)| b == bits).map(|&(_, m)| m)
    }

    /// Memoizes the outstanding request's exact outcome.
    fn memo_push(&mut self, outcome: Option<LossModel>) {
        let (word, bit) = memo_slot(self.pending_bits);
        self.seen[word] |= bit;
        self.memo.push((self.pending_bits, outcome));
    }

    /// The β₂ at the vertex of the parabola through the three lowest
    /// residuals in the memo — every exact outcome the walk has
    /// consumed, grid or golden-section — or `None` where it is
    /// undefined (fewer than three finite residuals, collinear points,
    /// overflow). It only steers look-ahead, so it need not be accurate.
    fn vertex(&self) -> Option<f64> {
        let mut low = self.low.get();
        for m in self.memo[self.low_seen.get()..]
            .iter()
            .filter_map(|&(_, m)| m)
        {
            let at = low.iter().position(|&(r, _)| m.residual_ss < r);
            if let Some(i) = at {
                low.copy_within(i..2, i + 1);
                low[i] = (m.residual_ss, m.beta2);
            }
        }
        self.low.set(low);
        self.low_seen.set(self.memo.len());
        let [(f1, x1), (f2, x2), (f3, x3)] = low;
        if !f3.is_finite() {
            return None;
        }
        let (p, q) = ((x1 - x2) * (f1 - f3), (x1 - x3) * (f1 - f2));
        let x = x1 - 0.5 * ((x1 - x2) * p - (x1 - x3) * q) / (p - q);
        x.is_finite().then_some(x)
    }

    fn finish(&mut self, res: Result<LossModel, FitError>) {
        self.done = Some(res);
        self.phase = Phase::Done;
    }

    /// `fit`'s grid-scan winner bookkeeping for index `i`.
    fn apply_grid_outcome(&mut self, i: usize, outcome: Option<LossModel>) {
        if let Some(m) = outcome {
            if self
                .best
                .as_ref()
                .is_none_or(|&(r, _, _)| m.residual_ss < r)
            {
                self.best = Some((m.residual_ss, i, m));
            }
        }
    }

    /// An exact request for `beta2`, unless the memo already holds it.
    fn exact(&mut self, beta2: f64) -> Result<Option<LossModel>, EvalReq> {
        match self.memo_find(beta2.to_bits()) {
            Some(m) => Ok(m),
            None => {
                self.pending_bits = beta2.to_bits();
                Err(EvalReq {
                    beta2,
                    bound: f64::INFINITY,
                })
            }
        }
    }

    /// Advances through memo hits and phase transitions until an
    /// evaluation is needed (returns the request) or the fit completes
    /// (returns `None`; the result is in `self.done`).
    fn next_request(&mut self) -> Option<EvalReq> {
        loop {
            match self.phase {
                Phase::Done => return None,
                Phase::Warm => {
                    let Some(wi) = self.warm_idx else {
                        self.phase = Phase::Grid { i: 0 };
                        continue;
                    };
                    match self.exact(self.grid_beta2(wi)) {
                        Ok(m) => {
                            if let Some(m) = m {
                                if m.residual_ss.is_finite() {
                                    self.warm_bound = m.residual_ss;
                                }
                            }
                            self.phase = Phase::Grid { i: 0 };
                        }
                        Err(req) => return Some(req),
                    }
                }
                Phase::Grid { i } => {
                    if i >= GRID_POINTS {
                        self.finish_grid();
                        continue;
                    }
                    let beta2 = self.grid_beta2(i);
                    match self.memo_find(beta2.to_bits()) {
                        Some(m) => {
                            self.apply_grid_outcome(i, m);
                            self.phase = Phase::Grid { i: i + 1 };
                        }
                        None => {
                            let mut bound = self.warm_bound;
                            if let Some(&(r, _, _)) = self.best.as_ref() {
                                if r < bound {
                                    bound = r;
                                }
                            }
                            // A non-finite bound disables abandonment.
                            let bound = if bound.is_finite() {
                                bound
                            } else {
                                f64::INFINITY
                            };
                            self.pending_bits = beta2.to_bits();
                            self.phase = Phase::GridAwait { i };
                            return Some(EvalReq { beta2, bound });
                        }
                    }
                }
                Phase::GridAwait { .. } => unreachable!("request outstanding"),
                Phase::GoldenC => match self.exact(self.br.c) {
                    Ok(m) => {
                        self.fc = residual_of(m);
                        self.phase = Phase::GoldenD;
                    }
                    Err(req) => return Some(req),
                },
                Phase::GoldenD => match self.exact(self.br.d) {
                    Ok(m) => {
                        self.fd = residual_of(m);
                        self.iter = 0;
                        self.phase = Phase::GoldenStep;
                    }
                    Err(req) => return Some(req),
                },
                Phase::GoldenStep => {
                    if self.iter >= REFINE_ITERS {
                        self.phase = Phase::Final;
                        continue;
                    }
                    let left = self.fc < self.fd;
                    self.br = self.br.narrow(left);
                    if left {
                        self.fd = self.fc;
                        self.phase = Phase::GoldenNeedC;
                    } else {
                        self.fc = self.fd;
                        self.phase = Phase::GoldenNeedD;
                    }
                }
                Phase::GoldenNeedC => match self.exact(self.br.c) {
                    Ok(m) => {
                        self.fc = residual_of(m);
                        self.iter += 1;
                        self.phase = Phase::GoldenStep;
                    }
                    Err(req) => return Some(req),
                },
                Phase::GoldenNeedD => match self.exact(self.br.d) {
                    Ok(m) => {
                        self.fd = residual_of(m);
                        self.iter += 1;
                        self.phase = Phase::GoldenStep;
                    }
                    Err(req) => return Some(req),
                },
                Phase::Final => match self.exact(self.br.mid()) {
                    Ok(m) => {
                        let mut best_model = self.best_model.expect("grid winner");
                        if let Some(m) = m {
                            if m.residual_ss < best_model.residual_ss {
                                best_model = m;
                            }
                        }
                        self.finish(Ok(best_model));
                    }
                    Err(req) => return Some(req),
                },
            }
        }
    }

    /// End of the grid scan: warm bookkeeping + golden-section setup.
    fn finish_grid(&mut self) {
        let Some((_, best_idx, grid_best)) = self.best else {
            self.finish(Err(FitError::NoViableModel));
            return;
        };
        if self.warm_idx == Some(best_idx) {
            self.tel.incr("fit.warm_start_hits");
        }
        *self.warm_slot = Some(best_idx);
        let cell = self.hi / (GRID_POINTS - 1) as f64;
        let a = (grid_best.beta2 - cell).max(0.0);
        let b = (grid_best.beta2 + cell).min(self.hi);
        self.best_model = Some(grid_best);
        if b > a {
            self.br = Bracket {
                a,
                b,
                c: b - (b - a) * INV_PHI,
                d: a + (b - a) * INV_PHI,
            };
            self.phase = Phase::GoldenC;
        } else {
            self.finish(Ok(grid_best));
        }
    }

    /// Feeds an evaluation outcome back into the interpreter. Exact
    /// evaluations just land in the memo (the next `next_request` call
    /// re-reads it); grid evaluations additionally advance the scan,
    /// because abandoned candidates are *not* memoized.
    fn consume(&mut self, outcome: &WaveOut) {
        match self.phase {
            Phase::GridAwait { i } => {
                match *outcome {
                    WaveOut::Fit(m) => {
                        self.memo_push(Some(m));
                        self.apply_grid_outcome(i, Some(m));
                    }
                    WaveOut::Abandoned => {}
                    WaveOut::Failed => self.memo_push(None),
                }
                self.phase = Phase::Grid { i: i + 1 };
            }
            Phase::Warm
            | Phase::GoldenC
            | Phase::GoldenD
            | Phase::GoldenNeedC
            | Phase::GoldenNeedD
            | Phase::Final => match *outcome {
                WaveOut::Fit(m) => self.memo_push(Some(m)),
                WaveOut::Failed => self.memo_push(None),
                WaveOut::Abandoned => unreachable!("no abandonment bound was set"),
            },
            Phase::Grid { .. } | Phase::GoldenStep | Phase::Done => {
                unreachable!("no request outstanding")
            }
        }
    }

    /// Consumes, in the walk's own order, the evaluations its lanes
    /// computed last wave (`answered` looks one up by β₂ bits), each
    /// re-judged against the bound the walk asks it under and counted
    /// as it is consumed. Returns the first request no lane answered —
    /// the job's frontier — or `None` once the fit is done.
    fn drain(
        &mut self,
        frontier: Option<EvalReq>,
        answered: impl Fn(u64) -> Option<(f64, Evaluated)>,
    ) -> Option<EvalReq> {
        let mut pending = frontier.or_else(|| self.next_request());
        while let Some(req) = pending {
            let Some((ran, ev)) = answered(req.beta2.to_bits()) else {
                break;
            };
            let Some(outcome) = rejudge(ev.out, ran, req.bound) else {
                break;
            };
            ev.facts.record(self.tel);
            self.consume(&outcome);
            pending = self.next_request();
        }
        pending
    }

    /// Fills group job `k`'s lanes for the next wave: the frontier in
    /// its first lane, then the candidates the walk will ask for next
    /// that are neither memoized nor already requested.
    fn plan(
        &self,
        frontier: EvalReq,
        k: usize,
        owner: &[usize; LANES],
        reqs: &mut [Option<EvalReq>; LANES],
    ) {
        let mut mine = (0..LANES).filter(|&j| owner[j] == k).peekable();
        let first = mine.next().expect("a live job owns a lane");
        reqs[first] = Some(frontier);
        if mine.peek().is_none() {
            return; // one lane: the frontier fills it (full groups)
        }
        let mut placed = [frontier.beta2.to_bits(); LANES];
        let mut n = 1;
        let mut emit = |beta2: f64, bound: f64| {
            let bits = beta2.to_bits();
            if placed[..n].contains(&bits) || self.memo_find(bits).is_some() {
                return true; // needs no lane
            }
            let Some(j) = mine.next() else {
                return false;
            };
            reqs[j] = Some(EvalReq { beta2, bound });
            placed[n] = bits;
            n += 1;
            true
        };
        match self.phase {
            // Grid look-ahead runs under the frontier's bound, which is
            // at least every later one (the best residual only falls).
            Phase::Warm => self.grid_ahead(0, frontier.bound, &mut emit),
            Phase::GridAwait { i } => self.grid_ahead(i + 1, frontier.bound, &mut emit),
            Phase::GoldenC => {
                if emit(self.br.d, f64::INFINITY) {
                    self.golden_ahead(0, &mut emit);
                }
            }
            Phase::GoldenD => self.golden_ahead(0, &mut emit),
            Phase::GoldenNeedC | Phase::GoldenNeedD => self.golden_ahead(self.iter + 1, &mut emit),
            Phase::Final | Phase::Grid { .. } | Phase::GoldenStep | Phase::Done => {}
        }
    }

    /// Emits grid candidates `from..` until `emit` runs out of lanes.
    fn grid_ahead(&self, from: usize, bound: f64, emit: &mut impl FnMut(f64, f64) -> bool) {
        for i in from..GRID_POINTS {
            if !emit(self.grid_beta2(i), bound) {
                return;
            }
        }
    }

    /// Emits the probes of the golden-section iterations from `iter` on
    /// until `emit` runs out of lanes: first along the path `vertex`
    /// predicts, through iteration [`PATH_ITERS`], then breadth first
    /// from where the path stops — both branches of each iteration, the
    /// final midpoint as the leaf — until the queue of [`TREE`] nodes
    /// runs dry. Without a vertex the tree starts at `iter`.
    ///
    /// Iteration `i` keeps `[a, d]` when `f(c) < f(d)`, which for a
    /// parabola with its vertex at `x̂` holds when `x̂` lies nearer `c`
    /// than `d`, so the path predicts `left ⇔ x̂ < (c + d)/2`. A wrong
    /// prediction costs only the lanes past it: the walk consumes
    /// outcomes by β₂ bits, so it leaves the path where it diverges.
    fn golden_ahead(&self, iter: usize, emit: &mut impl FnMut(f64, f64) -> bool) {
        let (mut br, mut iter) = (self.br, iter);
        let vertex = self.vertex();
        #[cfg(test)]
        let vertex = vertex.filter(|_| !NO_PREDICTION.with(std::cell::Cell::get));
        #[cfg(test)]
        let flip = INVERT_PREDICTION.with(std::cell::Cell::get);
        #[cfg(not(test))]
        let flip = false;
        if let Some(x) = vertex {
            while iter < PATH_ITERS {
                let left = (x < (br.c + br.d) / 2.0) != flip;
                br = br.narrow(left);
                if !emit(br.fresh(left), f64::INFINITY) {
                    return;
                }
                iter += 1;
            }
        }
        let mut queue = [(br, iter); TREE];
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let (br, it) = queue[head];
            head += 1;
            if it >= REFINE_ITERS {
                if !emit(br.mid(), f64::INFINITY) {
                    return;
                }
                continue;
            }
            for left in [true, false] {
                let next = br.narrow(left);
                if !emit(next.fresh(left), f64::INFINITY) {
                    return;
                }
                if tail < TREE {
                    queue[tail] = (next, it + 1);
                    tail += 1;
                }
            }
        }
    }
}

fn residual_of(m: Option<LossModel>) -> f64 {
    m.map(|m| m.residual_ss).unwrap_or(f64::INFINITY)
}

/// Per-lane Lawson–Hanson state between lockstep dual passes: the
/// shared active-set step's state, whether the lane still needs duals,
/// and the error it stopped on.
#[derive(Clone, Default)]
struct LaneNnls {
    set: ActiveSet<2>,
    running: bool,
    err: Option<FitError>,
}

impl LaneNnls {
    /// Advances lane `j` on its column of `dual`, updating its column of
    /// `x`, with every subproblem solved from its cached Gram in `sums`
    /// (`solve_sub2_cached`), until it converges, fails or needs the
    /// next dual.
    #[inline(always)]
    fn advance(&mut self, j: usize, x: &mut [Lanes; 2], dual: &[Lanes; 2], sums: &PassA, n: usize) {
        let g = [sums.g00.0[j], sums.g01.0[j], sums.g11.0[j]];
        let rhs = lane(&[sums.rhs0, sums.rhs1], j);
        let solve = |passive: &[bool; 2]| solve_sub2_cached(g[0], g[1], g[2], rhs, n, *passive);
        let mut xj = lane(x, j);
        let step = self.set.advance(&mut xj, &lane(dual, j), solve);
        [x[0].0[j], x[1].0[j]] = xj;
        match step {
            Ok(Step::NeedsDual) => {}
            Ok(Step::Optimal | Step::Saturated) => self.running = false,
            Err(e) => {
                self.err = Some(e);
                self.running = false;
            }
        }
    }
}

/// Lane `j` of a pair of column vectors: that lane's two column values.
#[inline(always)]
fn lane(v: &[Lanes; 2], j: usize) -> [f64; 2] {
    [v[0].0[j], v[1].0[j]]
}

/// Eight f64 lanes as one value. The sample-streaming passes (`row`,
/// `pass_a`, `sweep`) are written once over it: every op is one
/// lane-wise IEEE 754 operation (rustc performs no FMA contraction), so
/// the portable and the avx512f compilation of `eval_wave_body` compute
/// the same bits, and under avx512f each op compiles to one `zmm`
/// instruction (a keep-select to a zero-masked one).
#[derive(Clone, Copy, Debug, Default)]
struct Lanes([f64; LANES]);

impl Lanes {
    #[inline(always)]
    fn map2(self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self(std::array::from_fn(|j| f(self.0[j], o.0[j])))
    }

    /// `self` where the row is kept, `+0.0` elsewhere.
    #[inline(always)]
    fn kept_by(self, gap: Self) -> Self {
        self.map2(gap, |x, gap| if keeps(gap) { x } else { 0.0 })
    }

    /// `self + 1.0` where the row is kept, `self` elsewhere (one
    /// masked add).
    #[inline(always)]
    fn count_kept(self, gap: Self) -> Self {
        self.map2(gap, |n, gap| if keeps(gap) { n + 1.0 } else { n })
    }
}

/// `fit_for_beta2`'s keep test for a row with this `gap`; false on NaN,
/// as `_CMP_GT_OQ` is.
#[inline(always)]
fn keeps(gap: f64) -> bool {
    gap > 1e-9
}

impl std::ops::Add for Lanes {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.map2(o, |a, b| a + b)
    }
}

impl std::ops::Sub for Lanes {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.map2(o, |a, b| a - b)
    }
}

impl std::ops::Mul for Lanes {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.map2(o, |a, b| a * b)
    }
}

/// The gathered sample slots of `ks`/`ls`, one [`Lanes`] pair each, in
/// ascending-sample order.
#[inline(always)]
fn slots<'a>(ks: &'a [f64], ls: &'a [f64]) -> impl Iterator<Item = (Lanes, Lanes)> + 'a {
    let load = |s: &[f64]| Lanes(s.try_into().expect("one sample slot"));
    ks.chunks_exact(LANES)
        .zip(ls.chunks_exact(LANES))
        .map(move |(k, l)| (load(k), load(l)))
}

/// Pass A's sums per lane: everything the lane's NNLS admission and
/// solve need from one sweep over the gathered samples.
#[derive(Debug, Default)]
struct PassA {
    /// Rows with `gap > 1e-9` — `fit`'s kept-row count, summed as +1.0
    /// increments (exact up to 2⁵³).
    kept: Lanes,
    g00: Lanes,
    g01: Lanes,
    g11: Lanes,
    rhs0: Lanes,
    rhs1: Lanes,
}

/// `fit_for_beta2`'s regression rows for one sample slot under each
/// lane's candidate `beta2`: `(r0, r1, y) = (w·k, w, gap)` with
/// `w = gap²` where the row is kept (`gap > 1e-9`), all `+0.0` where it
/// is skipped, plus the `gap` that decides it. `r0` is formed
/// as `r1·k` without a mask: a skipped row's `+0.0·k` is `+0.0`,
/// because `k` is a finite step index ≥ 0. Every pass that needs the
/// rows rebuilds them with exactly these operations, so they come out
/// the same bits each time.
#[inline(always)]
fn row(k: Lanes, l: Lanes, beta2: Lanes) -> (Lanes, Lanes, Lanes, Lanes) {
    let gap = l - beta2;
    let r1 = (gap * gap).kept_by(gap);
    (r1 * k, r1, gap.kept_by(gap), gap)
}

/// Pass A: builds each regression row ([`row`]) and accumulates the
/// kept count and the Gram matrix and RHS in ascending-sample order —
/// the exact order `Matrix::gram` and `Matrix::tr_mul_vec` sum them, so
/// every f64 is bit-identical. The rows are not stored.
///
/// The sums go to `out`, a `BatchScratch` field, rather than being
/// returned, and so does `sweep`'s dual. Returned by value into the
/// inlined wave body, pass A's sums let the SLP vectorizer pair each
/// lane's `g00`/`g01` into `xmm` halves, which ran 22–35 % slower
/// (ROADMAP item 8), and the dual's accumulators pick up a `vpermpd`
/// per sample slot in both loops. Stored, both loops compile to the
/// `zmm` instruction sequence hand-written intrinsics would give.
#[inline(always)]
fn pass_a(ks: &[f64], ls: &[f64], beta2: Lanes, out: &mut PassA) {
    let zero = Lanes::default();
    let (mut kept, mut g00, mut g01, mut g11, mut rhs0, mut rhs1) =
        (zero, zero, zero, zero, zero, zero);
    for (k, l) in slots(ks, ls) {
        let (r0, r1, y, gap) = row(k, l, beta2);
        kept = kept.count_kept(gap);
        g00 = g00 + r0 * r0;
        g01 = g01 + r0 * r1;
        g11 = g11 + r1 * r1;
        rhs0 = rhs0 + r0 * y;
        rhs1 = rhs1 + r1 * y;
    }
    *out = PassA {
        kept,
        g00,
        g01,
        g11,
        rhs0,
        rhs1,
    };
}

/// One full dual sweep: `w = Aᵀ(y − A·x)` per lane, with the rows
/// rebuilt by [`row`]. `nnls`'s `mul_vec`/`tr_mul_vec` pair is
/// fused rowwise: each row's residual and its two accumulations into
/// `w` happen in the same order as there (`0.0 + r0·x0` keeps its add:
/// it turns a −0.0 product into +0.0, as `mul_vec` does).
#[inline(always)]
fn sweep(ks: &[f64], ls: &[f64], beta2: Lanes, x0: Lanes, x1: Lanes, out: &mut [Lanes; 2]) {
    let zero = Lanes::default();
    let (mut w0, mut w1) = (zero, zero);
    for (k, l) in slots(ks, ls) {
        let (r0, r1, y, _) = row(k, l, beta2);
        let resid = y - (zero + r0 * x0 + r1 * x1);
        w0 = w0 + r0 * resid;
        w1 = w1 + r1 * resid;
    }
    *out = [w0, w1];
}

/// Largest Gram-form magnitude a certificate accepts: below it no sum,
/// product or partial sum of the sweep it stands in for can overflow
/// (see [`gram_dual`]).
const DUAL_LIMIT: f64 = 1e300;

/// Each lane's dual in Gram form, `w′ᵢ = rhsᵢ − (Gᵢ₀·x₀ + Gᵢ₁·x₁)`,
/// from pass A's `sums`, and a bound `Eᵢ` with `|wᵢ − w′ᵢ| ≤ Eᵢ`, where
/// `wᵢ` is the dual a full [`sweep`] computes at the same `x` and `n`
/// is the lane's row count.
///
/// Both are sums over the same row bits (`row` rebuilds them), so only
/// rounding separates them. Every row term is non-negative (`r0`, `r1`
/// and `y` are `+0.0` or `gap²·k`, `gap²`, `gap > 0`), so the absolute
/// sums in the dot-product error bound (Higham, *Accuracy and Stability
/// of Numerical Algorithms*, §3.1) are the Gram and RHS themselves:
/// with `Sᵢ = rhsᵢ + Gᵢ₀·|x₀| + Gᵢ₁·|x₁|` and unit roundoff `u`, the
/// sweep's computed `wᵢ` is within `γ(n+3)·Sᵢ` of the exact dual, pass
/// A's Gram and RHS within `γ(n)` of theirs, and `w′ᵢ`'s own four
/// operations add `γ(3)·Sᵢ`, about `(2n + 6)·u·Sᵢ` in all. `Eᵢ`
/// doubles that, `2·(n + 4)·ε·Sᵢ` (`ε = 2u`), which also covers the
/// rounding of its own evaluation. A product that underflows errs by up
/// to `2^-1075` absolute instead; the term `(n + 1)·(1 + Gᵢᵢ + |x₀| +
/// |x₁|)·2^-1022` covers every such error many times over and keeps the
/// bound's own arithmetic out of the subnormal range, where each
/// operation costs a microcode assist on x86. Rows past the lane's
/// history and skipped rows add exact zeros, which round nothing. The
/// bound needs every step of the sweep finite, which holds while
/// `S₀ + S₁ + |x₀| + |x₁|` stays below [`DUAL_LIMIT`] (a row's `r0·x0`
/// is at most `G₀₀·|x₀|` when `r0 ≥ 1` and below `|x₀|` otherwise);
/// past it, or on NaN, `Eᵢ` is `+∞`.
#[inline(always)]
fn gram_dual(sums: &PassA, x: [Lanes; 2], n: Lanes) -> ([Lanes; 2], [Lanes; 2]) {
    let splat = |v| Lanes([v; LANES]);
    let g = [[sums.g00, sums.g01], [sums.g01, sums.g11]];
    let rhs = [sums.rhs0, sums.rhs1];
    let ax = x.map(|x| Lanes(x.0.map(f64::abs)));
    let w = [0, 1].map(|i| rhs[i] - (g[i][0] * x[0] + g[i][1] * x[1]));
    let s = [0, 1].map(|i| rhs[i] + g[i][0] * ax[0] + g[i][1] * ax[1]);
    let size = s[0] + s[1] + ax[0] + ax[1];
    let rel = splat(2.0 * f64::EPSILON) * (n + splat(4.0));
    let abs = splat(f64::MIN_POSITIVE) * (n + splat(1.0));
    let e = [0, 1].map(|i| {
        let e = rel * s[i] + abs * (splat(1.0) + g[i][i] + ax[0] + ax[1]);
        // `<=` is false on NaN.
        e.map2(
            size,
            |e, size| if size <= DUAL_LIMIT { e } else { f64::INFINITY },
        )
    });
    (w, e)
}

/// Advances every running lane on `dual`, then on each next dual that
/// the Gram can stand in for, until no lane runs (returns false) or a
/// full sweep must compute the next one (returns true).
///
/// The Gram-form dual ([`gram_dual`]) replaces the sweep only when every
/// running lane's scan is certified (`ActiveSet::certifies`) to decide
/// on it as on the sweep's. The answer is all lanes or none, because a
/// sweep costs the same for one lane as for eight; when it is none, the
/// lanes keep the previous dual and x until the caller's sweep. Lanes
/// that do not run get a Gram-form dual too, which nothing reads.
///
/// Kept out of line, with x and the dual in memory: inlined into the
/// wave body, the per-lane reads lead the vectorizer to keep pass A's
/// and the sweep's accumulators in permuted lane order, with a
/// `vpermpd` per sample slot.
#[inline(never)]
fn advance_lanes(
    st: &mut [LaneNnls; LANES],
    x: &mut [Lanes; 2],
    dual: &mut [Lanes; 2],
    sums: &PassA,
    lens: &[usize; LANES],
) -> bool {
    let n = Lanes(lens.map(|n| n as f64));
    loop {
        for (j, st) in st.iter_mut().enumerate() {
            if st.running {
                st.advance(j, x, dual, sums, lens[j]);
            }
        }
        if !st.iter().any(|l| l.running) {
            return false;
        }
        #[cfg(test)]
        if ALWAYS_SWEEP.with(std::cell::Cell::get) {
            return true;
        }
        let (w, e) = gram_dual(sums, *x, n);
        let certified = st.iter().enumerate().fold(true, |all, (j, st)| {
            all & (!st.running | st.set.certifies(&lane(&w, j), &lane(&e, j)))
        });
        if !certified {
            return true;
        }
        *dual = w;
    }
}

/// Executes one wave of β₂ candidate evaluations as SoA passes —
/// build + Gram, lockstep NNLS duals, residual accumulation — on the
/// requests in `scratch.reqs`, writing each lane's outcome and NNLS
/// facts to `scratch.outs`.
///
/// Dispatches to an avx512f compilation of the same body when the CPU
/// has it — with eight f64 lanes the accumulators fill one `zmm`
/// register each; the arithmetic is lane-wise IEEE either way (rustc
/// performs no FMA contraction), so results are bit-identical across
/// targets.
fn eval_wave(scratch: &mut BatchScratch, max_len: usize) {
    #[cfg(test)]
    if PORTABLE.with(std::cell::Cell::get) {
        return eval_wave_body(scratch, max_len);
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the avx512f requirement was just checked at runtime.
        return unsafe { eval_wave_avx512(scratch, max_len) };
    }
    eval_wave_body(scratch, max_len)
}

/// The wave body compiled with AVX-512 codegen enabled (the
/// `inline(always)` body is compiled with this function's target
/// features).
///
/// # Safety
///
/// The CPU must support avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn eval_wave_avx512(scratch: &mut BatchScratch, max_len: usize) {
    eval_wave_body(scratch, max_len)
}

#[inline(always)]
fn eval_wave_body(scratch: &mut BatchScratch, max_len: usize) {
    let reqs = scratch.reqs;
    let lens = scratch.lens;
    let mut beta2 = Lanes::default();
    let mut active = [false; LANES];
    for j in 0..LANES {
        if let Some(r) = reqs[j] {
            beta2.0[j] = r.beta2;
            active[j] = true;
        }
    }

    // Pass A — kept counts + Gram/RHS, one sweep over all samples.
    // Inactive lanes compute garbage against β₂ = 0 that nothing reads;
    // padded slots take the gap ≤ 1e-9 skip (see module docs).
    let width = max_len * LANES;
    let (ks, ls) = (&scratch.ks[..width], &scratch.ls[..width]);
    pass_a(ks, ls, beta2, &mut scratch.pass_a);
    let PassA {
        kept,
        g00,
        g11,
        rhs0,
        rhs1,
        ..
    } = scratch.pass_a;

    // Per-lane NNLS admission, with `fit_for_beta2`'s exact counters:
    // fewer than 2 rows fails silently (before any counter), a
    // non-finite row counts a solve *and* a failure. Post-preprocessing
    // losses are always finite, so `y` never trips `nnls`'s rhs
    // check — only row overflow (`w·k → ∞`) can. Every Gram diagonal
    // term is ≥ 0, so a non-finite row makes `g00` or `g11` non-finite;
    // only such a lane rescans its rows for `nnls`'s verdict
    // (finite rows can overflow the Gram too, and those must solve).
    let mut out = [Evaluated::default(); LANES];
    let mut st: [LaneNnls; LANES] = Default::default();
    let mut ran = [false; LANES];
    for j in 0..LANES {
        if !active[j] {
            continue;
        }
        if kept.0[j] < 2.0 {
            continue; // out[j] stays Failed, no counters — as in `fit`
        }
        out[j].facts.solved = true;
        if !(g00.0[j].is_finite() && g11.0[j].is_finite())
            && slots(ks, ls).take(lens[j]).any(|(k, l)| {
                let (r0, r1, _, _) = row(k, l, beta2);
                !(r0.0[j].is_finite() && r1.0[j].is_finite())
            })
        {
            out[j].facts.failed = true;
            continue;
        }
        st[j].running = true;
        ran[j] = true;
    }

    // Pass B — lockstep Lawson–Hanson: per-lane active-set advancement
    // from the cached Gram, with a vectorized full dual sweep only where
    // the Gram-form dual cannot stand in for it. Lanes that converge (or
    // fail) sit out the remaining sweeps with x frozen, contributing
    // dead work only. With x = 0 the fused rowwise dual degenerates term
    // by term to the RHS accumulation pass A already did —
    // `acc = r·0 + r·0 = +0.0`, `resid = y − 0.0 = y` bitwise — so the
    // first dual of every wave is free.
    let mut x = [Lanes::default(); 2];
    scratch.dual = [rhs0, rhs1];
    while advance_lanes(&mut st, &mut x, &mut scratch.dual, &scratch.pass_a, &lens) {
        #[cfg(test)]
        SWEEPS.with(|n| n.set(n.get() + 1));
        sweep(ks, ls, beta2, x[0], x[1], &mut scratch.dual);
    }
    let [x0, x1] = x;

    // Lane results: `nnls`'s exit-path residual (`NnlsSolution::
    // residual_ss`) is never read by the fit — it recomputes the
    // loss-space residual below — so the batched path skips it.
    let mut b0 = [0.0_f64; LANES];
    let mut b1 = [0.0_f64; LANES];
    let mut bb2 = [0.0_f64; LANES];
    // Lanes excluded from the residual pass get a crossed-immediately
    // bound so they never hold up the early exit.
    let mut bnd = [f64::NEG_INFINITY; LANES];
    let mut fitted = [false; LANES];
    for j in 0..LANES {
        if !ran[j] {
            continue;
        }
        if st[j].err.is_some() {
            out[j].facts.failed = true;
            continue; // out[j] stays Failed
        }
        out[j].facts.iterations = Some(st[j].set.iterations);
        fitted[j] = true;
        b0[j] = x0.0[j];
        b1[j] = x1.0[j];
        bb2[j] = beta2.0[j];
        bnd[j] = reqs[j].expect("active lane").bound;
    }

    // Pass C — loss-space residual, chunked so an all-lanes-abandoned
    // wave can stop early. Partial sums are monotone (terms ≥ 0, never
    // NaN), so a per-sample abandonment decision equals the full-sum
    // comparison done afterwards.
    let mut rss = [0.0_f64; LANES];
    let mut s0 = 0usize;
    while s0 < max_len {
        let stop = (s0 + 64).min(max_len);
        for (s, (ks, ls)) in (s0..stop).zip(
            ks[s0 * LANES..stop * LANES]
                .chunks_exact(LANES)
                .zip(ls[s0 * LANES..stop * LANES].chunks_exact(LANES)),
        ) {
            let ks: &[f64; LANES] = ks.try_into().expect("exact chunk");
            let ls: &[f64; LANES] = ls.try_into().expect("exact chunk");
            for j in 0..LANES {
                let k = ks[j];
                let l = ls[j];
                let denom = b0[j] * k + b1[j];
                let inv = 1.0 / denom + bb2[j];
                let pred = if denom <= 0.0 { bb2[j] } else { inv };
                let e = pred - l;
                let t = e * e;
                rss[j] += if s < lens[j] { t } else { 0.0 };
            }
        }
        s0 = stop;
        if (0..LANES).all(|j| rss[j] > bnd[j]) {
            break;
        }
    }

    for j in 0..LANES {
        if !fitted[j] {
            continue;
        }
        let bound = reqs[j].expect("active lane").bound;
        out[j].out = if bound.is_finite() && rss[j] > bound {
            WaveOut::Abandoned
        } else {
            WaveOut::Fit(LossModel {
                beta0: x0.0[j],
                beta1: x1.0[j],
                beta2: beta2.0[j],
                scale: scratch.scales[j],
                residual_ss: rss[j],
            })
        };
    }
    scratch.outs = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::LossSample;

    /// A planted `1/(0.05k + 1) + 0.2` curve with ±2 % deterministic
    /// jitter.
    fn history(n: usize) -> Vec<LossSample> {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|k| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let jitter = 1.0 + ((state % 1000) as f64 / 1000.0 - 0.5) * 0.04;
                (k as u64, (1.0 / (0.05 * k as f64 + 1.0) + 0.2) * jitter)
            })
            .collect()
    }

    /// Waves and full dual sweeps `fit_batch` runs for `copies`
    /// sessions, each refitting `raw` warm: fitted once on all but the
    /// last 10 samples, then on all of them under an honest
    /// stable-prefix claim.
    fn warm_refit_waves(raw: &[LossSample], copies: usize) -> (usize, usize) {
        let fitter = LossCurveFitter::new();
        let mut sessions: Vec<FitSession> = (0..copies).map(|_| FitSession::new()).collect();
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        let mut run = |raw: &[LossSample], stable_prefix: usize, sessions: &mut [FitSession]| {
            let mut jobs: Vec<BatchFitJob<'_>> = sessions
                .iter_mut()
                .map(|session| BatchFitJob {
                    fitter: &fitter,
                    raw,
                    stable_prefix,
                    session,
                })
                .collect();
            let before = (scratch.waves(), SWEEPS.with(|n| n.get()));
            fit_batch(&mut jobs, &mut scratch, &mut out);
            (
                (scratch.waves() - before.0) as usize,
                SWEEPS.with(|n| n.get()) - before.1,
            )
        };
        let early = &raw[..raw.len() - 10];
        run(early, 0, &mut sessions);
        let waves = run(raw, early.len(), &mut sessions);
        for res in &out[out.len() - copies..] {
            assert_eq!(res, &fitter.fit(raw), "warm refit matches the oracle");
        }
        waves
    }

    /// A lone job owns every lane and fills them with its own look-ahead,
    /// so a warm refit of a simulator-sized (400-point) history needs
    /// under a sixth of the waves of the one-lane walk, which is what
    /// each job of a full group of identical jobs still runs: one wave
    /// per evaluation (warm index, 31 more grid points, 2 + 40 probes,
    /// the midpoint). The lone job's 12 are four grid waves, one tree
    /// wave for the first golden-section probes (the warm-bounded grid
    /// leaves fewer than three exact residuals, so no vertex yet), four
    /// along the predicted path (eight iterations each) and three in
    /// the tree past iteration `PATH_ITERS`.
    #[test]
    fn a_lone_job_fills_every_lane() {
        let raw = history(400);
        let (one_lane, _) = warm_refit_waves(&raw, LANES);
        let (lone, _) = warm_refit_waves(&raw, 1);
        assert_eq!((one_lane, lone), (75, 12));
    }

    /// A wave's first dual is free (it is pass A's RHS), and a lane
    /// whose columns are all passive or rejected converges without the
    /// sweep `nnls` would spend on a scan that cannot pick a column.
    /// Every other dual the warm lone-job refit needs is certified from
    /// the Gram, so it runs no full sweep at all. With certificates
    /// refused it runs one per wave: a typical candidate enters one
    /// column on the free dual and the other on one full sweep.
    #[test]
    fn certified_duals_leave_no_sweep() {
        assert_eq!(warm_refit_waves(&history(400), 1), (12, 0));
        ALWAYS_SWEEP.with(|a| a.set(true));
        let swept = warm_refit_waves(&history(400), 1);
        ALWAYS_SWEEP.with(|a| a.set(false));
        assert_eq!(swept, (12, 12));
    }

    /// On an avx512f host `fit_batch` never runs the portable wave body,
    /// so the same waves run here through both bodies: a lone job, two
    /// jobs, a full group, and a ragged group padded to its longest
    /// history that also holds both overflow cases (every row
    /// non-finite; finite rows whose Gram overflows) and a rising curve,
    /// whose slope column the full dual sweep must keep out. Outcome
    /// bits and NNLS facts must agree lane by lane.
    #[test]
    fn portable_wave_matches_avx512_wave() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            let long = history(400);
            let mid = history(120);
            let short = history(37);
            let scaled: Vec<Vec<LossSample>> = (0..LANES)
                .map(|i| {
                    long.iter()
                        .map(|&(k, l)| (k, l * (1.0 + 0.3 * i as f64)))
                        .collect()
                })
                .collect();
            let rows_overflow: Vec<LossSample> = (0..40)
                .map(|k| (k * 1000, 1e160 / (k as f64 + 1.0)))
                .collect();
            let gram_overflow: Vec<LossSample> = (0..40)
                .map(|k| (k * 100_000, 1e80 / (k as f64 + 1.0)))
                .collect();
            let rising: Vec<LossSample> = history(90)
                .iter()
                .map(|&(k, l)| (k, 1.0 + 0.01 * k as f64 + 0.1 * l))
                .collect();
            let groups: [Vec<&[LossSample]>; 4] = [
                vec![&long],
                vec![&long, &mid],
                scaled.iter().map(Vec::as_slice).collect(),
                vec![&long, &mid, &short, &rows_overflow, &gram_overflow, &rising],
            ];
            let key = |e: &Evaluated| {
                let out = match e.out {
                    WaveOut::Fit(m) => {
                        Some([m.beta0, m.beta1, m.beta2, m.scale, m.residual_ss].map(f64::to_bits))
                    }
                    WaveOut::Abandoned => Some([u64::MAX; 5]),
                    WaveOut::Failed => None,
                };
                (out, e.facts.solved, e.facts.failed, e.facts.iterations)
            };
            for (g, raws) in groups.iter().enumerate() {
                let (mut scratch, max_len) = gathered(raws);
                let hi: Vec<f64> = raws
                    .iter()
                    .map(|r| {
                        let min = r.iter().map(|&(_, l)| l).fold(f64::INFINITY, f64::min);
                        (min - 1e-9).max(0.0)
                    })
                    .collect();
                for wave in 0..32 {
                    let bound = [f64::INFINITY, 1e-4, 1e-2, 1.0][wave % 4];
                    scratch.reqs = std::array::from_fn(|j| {
                        let i = (wave * LANES + j * 5) % 33; // 32 is idle
                        (i < 32).then(|| EvalReq {
                            beta2: hi[scratch.owner[j]] * i as f64 / 31.0,
                            bound,
                        })
                    });
                    eval_wave_body(&mut scratch, max_len);
                    let portable = scratch.outs.map(|e| key(&e));
                    // SAFETY: avx512f was detected above.
                    unsafe { eval_wave_avx512(&mut scratch, max_len) };
                    let avx512 = scratch.outs.map(|e| key(&e));
                    assert_eq!(portable, avx512, "group {g} wave {wave}");
                }
            }
        }
    }

    /// What whole `fit_batch` calls produced: the part that must not
    /// depend on how they ran (result bits, session state, telemetry
    /// summary), and the waves and full dual sweeps they ran.
    struct WholeFits {
        results: Vec<Result<[u64; 5], FitError>>,
        state: String,
        telemetry: optimus_telemetry::TelemetrySummary,
        sweeps: usize,
        waves: u64,
    }

    impl WholeFits {
        fn assert_same_outcomes(&self, other: &WholeFits) {
            assert_eq!(self.results, other.results, "result bits");
            assert_eq!(self.state, other.state, "session state");
            assert_eq!(self.telemetry, other.telemetry, "telemetry");
        }
    }

    /// Whole `fit_batch` calls with `set(true)` in force during them: a
    /// lone job (its look-ahead fills every lane), then ragged groups of
    /// thirteen series (a full group plus five) holding a flat history,
    /// an all-zero `hi == 0` one that finishes after one wave and hands
    /// its lanes on, a too-short one, both overflow cases and a rising
    /// curve, refit warm as every history grows.
    fn whole_fits(set: impl Fn(bool)) -> WholeFits {
        let long = history(400);
        let mut series: Vec<Vec<LossSample>> = (0..6)
            .map(|i| {
                let n = [400, 400, 250, 120, 90, 37][i];
                long[..n]
                    .iter()
                    .map(|&(k, l)| (k, l * (1.0 + 0.3 * i as f64)))
                    .collect()
            })
            .collect();
        series.push((0..60).map(|k| (k, 1.0)).collect());
        series.push((0..60).map(|k| (k, 0.0)).collect());
        series.push(vec![(0, 1.0), (1, 0.9)]);
        series.push(
            (0..40)
                .map(|k| (k * 1000, 1e160 / (k as f64 + 1.0)))
                .collect(),
        );
        series.push(
            (0..40)
                .map(|k| (k * 100_000, 1e80 / (k as f64 + 1.0)))
                .collect(),
        );
        series.push(
            history(90)
                .iter()
                .map(|&(k, l)| (k, 1.0 + 0.01 * k as f64 + 0.1 * l))
                .collect(),
        );
        series.push(history(300));
        set(true);
        let sweeps = SWEEPS.with(|n| n.get());
        let tel = Telemetry::enabled();
        let fitter = LossCurveFitter::new().with_telemetry(tel.clone());
        let mut lone = FitSession::new();
        let mut sessions: Vec<FitSession> = series.iter().map(|_| FitSession::new()).collect();
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        let mut prev = 0;
        for n in [30, 90, 200, 400] {
            let raw = &long[..n];
            let mut one = [BatchFitJob {
                fitter: &fitter,
                raw,
                stable_prefix: prev,
                session: &mut lone,
            }];
            fit_batch(&mut one, &mut scratch, &mut out);
            let mut jobs: Vec<BatchFitJob<'_>> = series
                .iter()
                .zip(sessions.iter_mut())
                .map(|(raw, session)| BatchFitJob {
                    fitter: &fitter,
                    raw: &raw[..n.min(raw.len())],
                    stable_prefix: prev.min(raw.len()),
                    session,
                })
                .collect();
            fit_batch(&mut jobs, &mut scratch, &mut out);
            prev = n;
        }
        let sweeps = SWEEPS.with(|n| n.get()) - sweeps;
        set(false);
        let results: Vec<_> = out
            .iter()
            .map(|r| match r {
                Ok(m) => Ok([m.beta0, m.beta1, m.beta2, m.scale, m.residual_ss].map(f64::to_bits)),
                Err(e) => Err(e.clone()),
            })
            .collect();
        assert!(results.iter().any(Result::is_ok));
        assert!(results.iter().any(Result::is_err));
        WholeFits {
            results,
            state: format!("{lone:?} {sessions:?}"),
            telemetry: tel.summary(),
            sweeps,
            waves: scratch.waves(),
        }
    }

    /// Whole fits through both compilations of the wave body agree. On a
    /// host without avx512f both runs take the portable body, so the
    /// test is only meaningful on an avx512f host.
    #[test]
    fn whole_fits_match_across_compilations() {
        let portable = whole_fits(|on| PORTABLE.with(|p| p.set(on)));
        whole_fits(|_| {}).assert_same_outcomes(&portable);
    }

    /// Whole fits agree whether the certificate stands in for sweeps or
    /// every dual after a wave's first is swept, and the certificate
    /// leaves fewer sweeps.
    #[test]
    fn whole_fits_match_with_and_without_the_certificate() {
        let swept = whole_fits(|on| ALWAYS_SWEEP.with(|a| a.set(on)));
        let certified = whole_fits(|_| {});
        certified.assert_same_outcomes(&swept);
        assert!(
            certified.sweeps < swept.sweeps,
            "sweeps {} vs {}",
            certified.sweeps,
            swept.sweeps
        );
    }

    /// Look-ahead only decides which evaluations run early, so whole
    /// fits agree whether the golden-section path follows the predicted
    /// branches, the inverted ones, or no prediction (the two-branch
    /// tree throughout). A path that is always wrong wastes its lanes,
    /// so it needs at least as many waves as the predicted one.
    #[test]
    fn whole_fits_match_under_bad_speculation() {
        let predicted = whole_fits(|_| {});
        let inverted = whole_fits(|on| INVERT_PREDICTION.with(|f| f.set(on)));
        let unpredicted = whole_fits(|on| NO_PREDICTION.with(|f| f.set(on)));
        predicted.assert_same_outcomes(&inverted);
        predicted.assert_same_outcomes(&unpredicted);
        assert!(
            predicted.waves <= inverted.waves && predicted.waves <= unpredicted.waves,
            "waves: predicted {}, inverted {}, unpredicted {}",
            predicted.waves,
            inverted.waves,
            unpredicted.waves
        );
    }

    /// The decisions the active-set step takes on dual `w`: the scan's
    /// entering column, and the rescan's after that column is rejected.
    fn scans(set: &ActiveSet<2>, w: [f64; 2]) -> [Option<usize>; 2] {
        let first = set.entering(&w);
        let rescan = first.and_then(|i| {
            let mut set = *set;
            set.rejected[i] = true;
            set.entering(&w)
        });
        [first, rescan]
    }

    /// Lane states a scan can meet: both columns open (as after an
    /// interpolation empties P), one passive, one rejected.
    const OPEN_STATES: [([bool; 2], [bool; 2]); 5] = [
        ([false, false], [false, false]),
        ([true, false], [false, false]),
        ([false, true], [false, false]),
        ([false, false], [true, false]),
        ([false, false], [false, true]),
    ];

    /// Certified and fallback lane checks of [`check_duals`].
    #[derive(Default)]
    struct Tally {
        certified: usize,
        fallback: usize,
    }

    /// Runs pass A and a real sweep at `(β₂, x)` on every lane of a
    /// gathered scratch, and checks each lane's Gram-form dual against
    /// the sweep's: the bound holds wherever it is finite, and in every
    /// state of [`OPEN_STATES`] a certified lane's scans decide as on
    /// the sweep's dual.
    fn check_duals(
        scratch: &BatchScratch,
        max_len: usize,
        beta2: Lanes,
        x: [Lanes; 2],
        tally: &mut Tally,
    ) {
        let width = max_len * LANES;
        let (ks, ls) = (&scratch.ks[..width], &scratch.ls[..width]);
        let mut sums = PassA::default();
        pass_a(ks, ls, beta2, &mut sums);
        let mut swept = [Lanes::default(); 2];
        sweep(ks, ls, beta2, x[0], x[1], &mut swept);
        let (wg, eg) = gram_dual(&sums, x, Lanes(scratch.lens.map(|n| n as f64)));
        for j in 0..LANES {
            let (w, e, ws) = (lane(&wg, j), lane(&eg, j), lane(&swept, j));
            for i in 0..2 {
                assert!(
                    !e[i].is_finite() || (ws[i] - w[i]).abs() <= e[i],
                    "lane {j} column {i}: sweep {} Gram {} bound {}",
                    ws[i],
                    w[i],
                    e[i]
                );
            }
            for (passive, rejected) in OPEN_STATES {
                let set = ActiveSet {
                    passive,
                    rejected,
                    iterations: 0,
                };
                if set.certifies(&w, &e) {
                    tally.certified += 1;
                    assert_eq!(
                        scans(&set, w),
                        scans(&set, ws),
                        "lane {j} state {passive:?}/{rejected:?}: Gram {w:?} ± {e:?}, sweep {ws:?}"
                    );
                } else {
                    tally.fallback += 1;
                }
            }
        }
    }

    /// Checks the certificate over a gathered group of eight series:
    /// at the x values a real lockstep Lawson–Hanson pass reaches (the
    /// sweep's dual driving it), at each lane's least-squares solutions,
    /// at x placing a dual within a few ulps of the tolerance, and at
    /// tiny x whose row products underflow and huge x past the limit.
    fn check_group(raws: &[Vec<LossSample>], tally: &mut Tally) {
        let refs: Vec<&[LossSample]> = raws.iter().map(Vec::as_slice).collect();
        let (scratch, max_len) = gathered(&refs);
        let width = max_len * LANES;
        let (ks, ls) = (&scratch.ks[..width], &scratch.ls[..width]);
        let hi: [f64; LANES] = std::array::from_fn(|j| {
            let min = refs[j % refs.len()]
                .iter()
                .map(|&(_, l)| l)
                .fold(f64::INFINITY, f64::min);
            (min - 1e-9).max(0.0)
        });
        // Grid candidates, and β₂ leaving the smallest gap just above or
        // at 1e-9.
        let fractions = [0.0, 0.25, 0.5, 0.75, 30.0 / 31.0, 1.0];
        for (f, &frac) in fractions.iter().enumerate() {
            let beta2 = Lanes(std::array::from_fn(|j| {
                let b = hi[j] * frac;
                if f + 1 == fractions.len() && j % 2 == 1 {
                    b - 1e-9 * (j as f64 / 8.0)
                } else {
                    b
                }
            }));
            let mut sums = PassA::default();
            pass_a(ks, ls, beta2, &mut sums);

            // The lockstep pass as `eval_wave_body` runs it, every dual
            // from a real sweep.
            let mut st: [LaneNnls; LANES] = Default::default();
            for (j, l) in st.iter_mut().enumerate() {
                l.running =
                    sums.kept.0[j] >= 2.0 && sums.g00.0[j].is_finite() && sums.g11.0[j].is_finite();
            }
            let mut x = [Lanes::default(); 2];
            let mut dual = [sums.rhs0, sums.rhs1];
            for _ in 0..8 {
                for (j, st) in st.iter_mut().enumerate() {
                    if st.running {
                        st.advance(j, &mut x, &dual, &sums, scratch.lens[j]);
                    }
                }
                if !st.iter().any(|l| l.running) {
                    break;
                }
                check_duals(&scratch, max_len, beta2, x, tally);
                sweep(ks, ls, beta2, x[0], x[1], &mut dual);
            }

            // Least-squares solutions on P = {0}, {1}; x placing one
            // column's dual a few ulps either side of the tolerance; x
            // making the two duals tie, for the two-candidate argmax.
            let lane = |f: &dyn Fn(usize) -> f64| Lanes(std::array::from_fn(f));
            let zero = Lanes::default();
            let t = crate::nnls::TOLERANCE;
            let (g, rhs) = ([sums.g00, sums.g01, sums.g11], [sums.rhs0, sums.rhs1]);
            let mut xs = vec![
                [lane(&|j| rhs[0].0[j] / g[0].0[j]), zero],
                [zero, lane(&|j| rhs[1].0[j] / g[2].0[j])],
            ];
            for ulps in [-3.0, -1.0, 0.0, 1.0, 3.0] {
                let nudge = 1.0 + ulps * f64::EPSILON;
                let tie0 = |j: usize| (rhs[0].0[j] - rhs[1].0[j]) / (g[0].0[j] - g[1].0[j]);
                let tie1 = |j: usize| (rhs[1].0[j] - rhs[0].0[j]) / (g[2].0[j] - g[1].0[j]);
                xs.extend([
                    [lane(&|j| (rhs[1].0[j] - t) / g[1].0[j] * nudge), zero],
                    [zero, lane(&|j| (rhs[0].0[j] - t) / g[1].0[j] * nudge)],
                    [lane(&|j| tie0(j) * nudge), zero],
                    [zero, lane(&|j| tie1(j) * nudge)],
                ]);
            }
            for tiny in [5e-324, 1e-310, 1e-300, 1e290] {
                xs.push([
                    lane(&|j| tiny * (j + 1) as f64),
                    lane(&|j| tiny / (j + 1) as f64),
                ]);
            }
            for x in xs {
                check_duals(&scratch, max_len, beta2, x, tally);
            }
        }
    }

    /// Past `DUAL_LIMIT`, or on NaN, the bound is infinite, so nothing
    /// that could overflow a sweep step is certified; below it, finite.
    #[test]
    fn gram_dual_refuses_what_could_overflow() {
        let splat = |v| Lanes([v; LANES]);
        let sums = PassA {
            g00: splat(1e200),
            g01: splat(1.0),
            g11: splat(1.0),
            rhs0: splat(1.0),
            rhs1: splat(1.0),
            ..PassA::default()
        };
        let bound = |x0: f64| gram_dual(&sums, [splat(x0), splat(0.0)], splat(400.0)).1;
        assert!(bound(1e99)
            .iter()
            .all(|e| e.0.iter().all(|e| e.is_finite())));
        for x0 in [1e101, f64::INFINITY, f64::NAN] {
            assert!(bound(x0).iter().all(|e| e.0 == [f64::INFINITY; LANES]));
        }
    }

    /// The certificate is sound: wherever it stands in for a sweep, the
    /// scans decide exactly as on the sweep's dual, and its bound holds.
    /// Random histories at scales from 1e-6 to 1e6, then adversarial
    /// ones: losses small enough that the duals sit near the tolerance,
    /// huge step indices that bring the Gram near overflow, and both
    /// overflow cases. Both branches must run.
    #[test]
    fn certified_duals_decide_as_the_sweep() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut tally = Tally::default();
        for _ in 0..24 {
            let raws: Vec<Vec<LossSample>> = (0..LANES)
                .map(|_| {
                    let n = 3 + (unit() * 400.0) as usize;
                    let stride = 1 + (unit() * 50.0) as u64;
                    let scale = 10f64.powf(unit() * 12.0 - 6.0);
                    let (b0, b1, b2) = (0.01 + unit(), 0.5 + 2.0 * unit(), unit());
                    (0..n as u64)
                        .map(|i| {
                            let k = i * stride;
                            let l = 1.0 / (b0 * k as f64 + b1) + b2;
                            let spike = if unit() < 0.02 { 5.0 } else { 1.0 };
                            (k, scale * l * spike * (1.0 + 0.1 * (unit() - 0.5)))
                        })
                        .collect()
                })
                .collect();
            check_group(&raws, &mut tally);
        }
        for e in [-9, -7, -5, 40, 60, 65, 70, 72, 74, 76, 80] {
            let scale = 10f64.powi(e);
            let stride = if e > 0 { 10u64.pow(15) } else { 1 };
            let raws: Vec<Vec<LossSample>> = (0..LANES)
                .map(|j| {
                    history(40 + 50 * j)
                        .iter()
                        .map(|&(k, l)| (k * stride, scale * l * (1.0 + 0.1 * j as f64)))
                        .collect()
                })
                .collect();
            check_group(&raws, &mut tally);
        }
        assert!(
            tally.certified > 0 && tally.fallback > 0,
            "{} lane checks certified, {} fell back",
            tally.certified,
            tally.fallback
        );
    }

    /// A scratch holding `raws` gathered as `fit_group` deals them (lane
    /// `j` to job `j % n`), padded to the longest; returns it with that
    /// length.
    fn gathered(raws: &[&[LossSample]]) -> (BatchScratch, usize) {
        let max_len = raws.iter().map(|r| r.len()).max().expect("a job");
        let mut scratch = BatchScratch::new();
        scratch.ks = vec![0.0; max_len * LANES];
        scratch.ls = vec![0.0; max_len * LANES];
        for j in 0..LANES {
            let k = j % raws.len();
            scratch.owner[j] = k;
            scratch.lens[j] = raws[k].len();
            scratch.scales[j] = 1.0;
            for (s, &(step, l)) in raws[k].iter().enumerate() {
                scratch.ks[s * LANES + j] = step as f64;
                scratch.ls[s * LANES + j] = l;
            }
        }
        (scratch, max_len)
    }

    /// Look-ahead outcomes are re-judged against the bound the walk asks
    /// under: a full residual is exact under any bound, an abandoned one
    /// only proves it exceeds the bound it ran under.
    #[test]
    fn rejudge_follows_the_walks_bound() {
        let fit = |r: f64| {
            WaveOut::Fit(LossModel {
                beta0: 1.0,
                beta1: 1.0,
                beta2: 0.0,
                scale: 1.0,
                residual_ss: r,
            })
        };
        let inf = f64::INFINITY;
        let kind = |o: Option<WaveOut>| match o {
            Some(WaveOut::Fit(m)) => Some(m.residual_ss),
            Some(WaveOut::Abandoned) => Some(-1.0),
            Some(WaveOut::Failed) => Some(-2.0),
            None => None,
        };
        assert_eq!(kind(rejudge(fit(2.0), inf, 3.0)), Some(2.0));
        assert_eq!(kind(rejudge(fit(2.0), inf, 2.0)), Some(2.0)); // ties stay
        assert_eq!(kind(rejudge(fit(2.0), inf, 1.0)), Some(-1.0));
        assert_eq!(kind(rejudge(fit(2.0), 3.0, inf)), Some(2.0));
        assert_eq!(kind(rejudge(WaveOut::Abandoned, 3.0, 3.0)), Some(-1.0));
        assert_eq!(kind(rejudge(WaveOut::Abandoned, 3.0, 1.0)), Some(-1.0));
        assert_eq!(kind(rejudge(WaveOut::Abandoned, 3.0, 4.0)), None);
        assert_eq!(kind(rejudge(WaveOut::Abandoned, 3.0, inf)), None);
        assert_eq!(kind(rejudge(WaveOut::Failed, 3.0, 1.0)), Some(-2.0));
    }

    /// Fits `raws` as one group, checks every result against `fit`,
    /// and returns the final lane owners and the waves run.
    fn fit_one_group(raws: &[&[LossSample]]) -> ([usize; LANES], u64) {
        let fitter = LossCurveFitter::new();
        let mut sessions: Vec<FitSession> = raws.iter().map(|_| FitSession::new()).collect();
        let mut jobs: Vec<BatchFitJob<'_>> = raws
            .iter()
            .zip(sessions.iter_mut())
            .map(|(&raw, session)| BatchFitJob {
                fitter: &fitter,
                raw,
                stable_prefix: 0,
                session,
            })
            .collect();
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        fit_batch(&mut jobs, &mut scratch, &mut out);
        for (raw, res) in raws.iter().zip(&out) {
            assert_eq!(res, &fitter.fit(raw));
        }
        (scratch.owner, scratch.waves())
    }

    /// Jobs that fail the prologue get no lane; every live job gets
    /// ⌊LANES/n⌋ or ⌈LANES/n⌉. Identical live jobs with as many lanes
    /// each walk in step and finish in the same wave, so no lane is
    /// re-dealt and the table still holds the initial deal when the fit
    /// returns.
    #[test]
    fn lanes_are_dealt_only_to_live_jobs() {
        let healthy = history(120);
        let short: Vec<LossSample> = vec![(0, 1.0), (1, 0.9)];
        let two = [&short[..], &healthy[..], &healthy[..], &short[..]];
        assert_eq!(fit_one_group(&two).0, [1, 2, 1, 2, 1, 2, 1, 2]);
        let four = [
            &healthy[..],
            &short[..],
            &healthy[..],
            &healthy[..],
            &healthy[..],
        ];
        assert_eq!(fit_one_group(&four).0, [0, 2, 3, 4, 0, 2, 3, 4]);
    }

    /// An all-zero history has `hi == 0`: its whole grid is β₂ = 0, one
    /// evaluation, so its walk finishes after the first wave and its
    /// four lanes go to the long job, which then walks on all eight. It
    /// finishes within one wave of the long job fit alone, and every
    /// final owner is a live job.
    #[test]
    fn finished_walks_hand_their_lanes_on() {
        let healthy = history(400);
        let zero: Vec<LossSample> = (0..4).map(|k| (k, 0.0)).collect();
        let short: Vec<LossSample> = vec![(0, 1.0), (1, 0.9)];
        let (_, alone) = fit_one_group(&[&healthy[..]]);
        let raws = [&short[..], &zero[..], &healthy[..], &short[..]];
        let (owner, waves) = fit_one_group(&raws);
        assert_eq!(owner, [2; LANES]);
        assert!(waves <= alone + 1, "{waves} waves, {alone} alone");
    }
}
