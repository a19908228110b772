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
//! is where the speedup comes from; on CPUs with avx512f, [`fit_batch`]
//! additionally dispatches to an AVX-512 compilation of the passes, with
//! the two that stream the samples (row build + Gram/RHS, and the dual
//! sweep) hand-vectorized via intrinsics. Per-job *control* (grid walk, memoization,
//! golden-section branching, NNLS active-set changes) stays scalar.
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
//!   cleared per fit because the samples may have changed.
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
//!   prologue checks), and the gather pass copies a job's samples into
//!   every lane it owns; a group of [`LANES`] live jobs gives each job
//!   one lane. A job fills its lanes with its frontier request plus
//!   evaluations its walk will ask for next, neither memoized nor
//!   already requested: the next grid candidates, under the frontier's
//!   bound (at least every later one, since the best residual only
//!   falls), or the golden-section probes of the next iterations —
//!   probe positions depend only on which branch each iteration takes,
//!   never on residual values, so both branches of the next few
//!   iterations (and the final midpoint past the last) are known in
//!   advance and seven lanes advance three iterations per wave. Each
//!   wave's outcomes are the look-ahead buffer: at the start of the
//!   next wave the walk consumes them in its own order, by β₂ bits and
//!   re-judged against its own bound, until it asks for one no lane
//!   computed — the new frontier. Unconsumed outcomes are dropped.
//!   Memo hits, degenerate `hi == 0` grids and divergent golden-section
//!   paths therefore cannot desynchronize anything: a lane with no
//!   evaluation to run sits the wave out.
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
//!   in the same order (`row` and its AVX-512 twin), so every rebuild is
//!   the same bits. Building a row costs a few lane-wise ops; storing
//!   and re-reading three row arrays cost more, because a wave's passes
//!   are bound by memory traffic, not arithmetic. A skipped row's `r0`
//!   is `r1·k = +0.0·k = +0.0` without a mask, since `k` is a finite
//!   step index ≥ 0.
//! * **Gram caching is exact.** The Lawson–Hanson subproblem Gram/RHS
//!   depend on the rows only, so they are computed once per candidate in
//!   pass A and every active-set solve replays through
//!   `solve_sub2_cached` in O(1) — same accumulation order as
//!   `Matrix::gram`, whose zero-row guards only ever skip exactly-zero
//!   terms.
//! * **Non-finite rows show in the Gram diagonal.** `nnls_with` fails a
//!   solve when any row holds an ∞ or NaN. Every `g00`/`g11` term is a
//!   square, ≥ 0, so such a row makes `g00` or `g11` non-finite; a lane
//!   whose diagonal is finite therefore has only finite rows. A lane
//!   whose diagonal is not rescans its rows for the exact verdict,
//!   because finite rows can overflow the Gram too, and those lanes
//!   solve as `nnls_with` does.
//! * **Only sweeps whose dual can be used run.** The first dual sweep
//!   of a wave is pass A's RHS (`x = 0`). After `x` changes, a lane asks
//!   for a fresh sweep only if some column is neither passive nor
//!   rejected: otherwise `nnls_with`'s scan finds no entering column
//!   whatever the dual holds, and returns without counting anything, so
//!   the lane converges on the spot. A candidate that enters both
//!   columns thus costs one full sweep, not two.
//! * **Full-sum abandonment is prefix abandonment.** By the same
//!   monotonicity, the full sum exceeds the bound iff some prefix does,
//!   so the abandonment decision is recoverable from a batched full
//!   pass.

use crate::error::FitError;
use crate::loss_curve::{FitSession, LossCurveFitter, LossModel};
use crate::nnls::{solve_sub2_cached, NnlsOptions};
use crate::preprocess::{preprocess_losses_incremental, LossSample};
use optimus_telemetry::Telemetry;

/// Fixed lane width of the SoA passes. Eight f64 lanes fill one AVX-512
/// register (`eval_wave` dispatches to hand-vectorized and
/// AVX-512-compiled passes when the CPU has avx512f) or four SSE2 /
/// two AVX2 vectors — wide enough to fill a vector unit, narrow enough
/// that ragged histories within a group waste little padded work.
pub const LANES: usize = 8;

const INV_PHI: f64 = 0.618_033_988_749_895;

/// One job's inputs to [`fit_batch`].
pub struct BatchFitJob<'a> {
    /// Fitter configuration (grid size, preprocessing, telemetry).
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
}

impl BatchScratch {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
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
    /// Waves run on this thread, for the tests that pin lane occupancy.
    static WAVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Full dual sweeps run on this thread (the free first sweep of a
    /// wave is not one), for the test that pins the dead-sweep rule.
    static SWEEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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

    // Pass 2 — deal the lanes round-robin to the live jobs, so each of
    // n holds ⌊LANES/n⌋ or ⌈LANES/n⌉ (one each in a full group), and
    // gather each job's samples into every lane it owns, padded with
    // (0, 0.0) up to the group's longest history. Every slot the waves
    // read is written here, so the buffers only grow when a group is
    // longer than any before.
    let width = max_len * LANES;
    for buf in [&mut scratch.ks, &mut scratch.ls] {
        if buf.len() < width {
            buf.resize(width, 0.0);
        }
    }
    scratch.reqs = [None; LANES]; // no look-ahead from the previous group
    if n_live > 0 {
        scratch.owner = std::array::from_fn(|j| live[j % n_live]);
        for j in 0..LANES {
            let k = scratch.owner[j];
            let samples = group[k].session.pre.samples();
            scratch.lens[j] = pro[k].len;
            scratch.scales[j] = pro[k].scale;
            for s in 0..max_len {
                let (step, l) = samples
                    .get(s)
                    .map_or((0.0, 0.0), |&(step, l)| (step as f64, l));
                scratch.ks[s * LANES + j] = step;
                scratch.ls[s * LANES + j] = l;
            }
        }
    }

    // Pass 3 — build the job walks (mutable borrows into each job's
    // session memo + warm index; `pre` is no longer needed).
    let mut walks: [Option<JobWalk<'_>>; LANES] = Default::default();
    for ((slot, job), p) in walks.iter_mut().zip(group.iter_mut()).zip(pro.iter_mut()) {
        let FitSession {
            memo,
            warm_grid_index,
            ..
        } = &mut *job.session;
        *slot = Some(JobWalk::new(
            job.fitter,
            memo,
            warm_grid_index,
            p.hi,
            p.err.take(),
        ));
    }

    // Wave loop: each walk consumes what its lanes computed last wave,
    // then fills its lanes with its frontier request and look-ahead;
    // one SoA pass evaluates them all.
    let mut frontier: [Option<EvalReq>; LANES] = [None; LANES];
    loop {
        for (k, walk) in walks.iter_mut().flatten().enumerate() {
            frontier[k] = walk.drain(frontier[k], |bits| scratch.answered(k, bits));
        }
        scratch.reqs = [None; LANES];
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
        #[cfg(test)]
        WAVES.with(|w| w.set(w.get() + 1));
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

/// Resumable interpreter of one job's candidate walk: `fit`'s grid scan
/// and golden-section refinement plus the memo and warm start.
struct JobWalk<'a> {
    memo: &'a mut Vec<(u64, Option<LossModel>)>,
    warm_slot: &'a mut Option<usize>,
    tel: &'a Telemetry,
    steps: usize,
    refine_iters: usize,
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
}

impl<'a> JobWalk<'a> {
    fn new(
        fitter: &'a LossCurveFitter,
        memo: &'a mut Vec<(u64, Option<LossModel>)>,
        warm_slot: &'a mut Option<usize>,
        hi: f64,
        err: Option<FitError>,
    ) -> Self {
        let steps = fitter.grid_points.max(2);
        let mut walk = JobWalk {
            tel: &fitter.tel,
            steps,
            refine_iters: fitter.refine_iters,
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
                walk.warm_idx = (*walk.warm_slot).filter(|&i| i < steps);
            }
        }
        walk
    }

    fn grid_beta2(&self, i: usize) -> f64 {
        self.hi * i as f64 / (self.steps - 1) as f64
    }

    fn memo_find(&self, bits: u64) -> Option<Option<LossModel>> {
        self.memo.iter().find(|&&(b, _)| b == bits).map(|&(_, m)| m)
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
                    if i >= self.steps {
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
                    if self.iter >= self.refine_iters {
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
        let cell = self.hi / (self.steps - 1) as f64;
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
                        self.memo.push((self.pending_bits, Some(m)));
                        self.apply_grid_outcome(i, Some(m));
                    }
                    WaveOut::Abandoned => {}
                    WaveOut::Failed => {
                        self.memo.push((self.pending_bits, None));
                    }
                }
                self.phase = Phase::Grid { i: i + 1 };
            }
            Phase::Warm
            | Phase::GoldenC
            | Phase::GoldenD
            | Phase::GoldenNeedC
            | Phase::GoldenNeedD
            | Phase::Final => match *outcome {
                WaveOut::Fit(m) => self.memo.push((self.pending_bits, Some(m))),
                WaveOut::Failed => self.memo.push((self.pending_bits, None)),
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
        for i in from..self.steps {
            if !emit(self.grid_beta2(i), bound) {
                return;
            }
        }
    }

    /// Emits, breadth first, the probes of the golden-section iterations
    /// from `iter` on — both branches of each, the final midpoint as the
    /// leaf — until `emit` runs out of lanes or the queue of [`TREE`]
    /// nodes runs dry.
    fn golden_ahead(&self, iter: usize, emit: &mut impl FnMut(f64, f64) -> bool) {
        let mut queue = [(self.br, iter); TREE];
        let (mut head, mut tail) = (0, 1);
        while head < tail {
            let (br, it) = queue[head];
            head += 1;
            if it >= self.refine_iters {
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

/// Per-lane Lawson–Hanson state between lockstep dual passes.
#[derive(Clone, Default)]
struct LaneNnls {
    passive: [bool; 2],
    rejected: [bool; 2],
    iterations: usize,
    running: bool,
    err: Option<FitError>,
}

/// Pass A outputs: everything lane `j`'s NNLS admission and solve need
/// from one sweep over the gathered samples.
struct PassA {
    /// Rows with `gap > 1e-9` — `fit`'s kept-row count.
    kept: [u64; LANES],
    g00: [f64; LANES],
    g01: [f64; LANES],
    g11: [f64; LANES],
    rhs0: [f64; LANES],
    rhs1: [f64; LANES],
}

/// `fit_for_beta2`'s regression row for sample `(k, l)` under
/// candidate `beta2`: `(r0, r1, y) = (w·k, w, gap)` with `w = gap²` when
/// the row is kept (`gap > 1e-9`), all `+0.0` when it is skipped, plus
/// the keep flag. `r0` is formed as `r1·k` without a mask: a skipped
/// row's `+0.0·k` is `+0.0`, because `k` is a finite step index ≥ 0.
/// Every pass that needs the rows rebuilds them with exactly these
/// operations, so they come out the same bits each time.
#[inline(always)]
fn row(k: f64, l: f64, beta2: f64) -> (f64, f64, f64, bool) {
    let gap = l - beta2;
    let keep = gap > 1e-9;
    let r1 = if keep { gap * gap } else { 0.0 };
    (r1 * k, r1, if keep { gap } else { 0.0 }, keep)
}

/// Pass A, portable form: builds each regression row ([`row`]) and
/// accumulates the kept count and the Gram matrix and RHS in
/// ascending-sample order — the exact order `Matrix::gram` and
/// `Matrix::tr_mul_vec` sum them, so every f64 is bit-identical. The
/// rows are not stored; `kept` counts them as +1.0 increments (exact up
/// to 2⁵³).
fn pass_a_scalar(ks: &[f64], ls: &[f64], beta2: &[f64; LANES]) -> PassA {
    let mut kept = [0.0_f64; LANES];
    let mut g00 = [0.0_f64; LANES];
    let mut g01 = [0.0_f64; LANES];
    let mut g11 = [0.0_f64; LANES];
    let mut rhs0 = [0.0_f64; LANES];
    let mut rhs1 = [0.0_f64; LANES];
    for (ks, ls) in ks.chunks_exact(LANES).zip(ls.chunks_exact(LANES)) {
        for j in 0..LANES {
            let (r0, r1, y, keep) = row(ks[j], ls[j], beta2[j]);
            kept[j] += if keep { 1.0 } else { 0.0 };
            g00[j] += r0 * r0;
            g01[j] += r0 * r1;
            g11[j] += r1 * r1;
            rhs0[j] += r0 * y;
            rhs1[j] += r1 * y;
        }
    }
    PassA {
        kept: kept.map(|c| c as u64),
        g00,
        g01,
        g11,
        rhs0,
        rhs1,
    }
}

/// Pass A with explicit AVX-512 intrinsics — one sweep, eight lanes per
/// `zmm` register, reading only `ks` and `ls`. The autovectorizer does
/// not vectorize the scalar form's select-heavy body well, so this path
/// spells out the same dataflow by hand.
///
/// Bit-identity with `pass_a_scalar` holds operation by operation:
/// every intrinsic used (`sub/mul/add_pd`, `cmp_pd GT_OQ`, the
/// zero-masked multiply and move, the merge-masked add) is lane-wise
/// IEEE 754 with the scalar op's exact semantics (GT_OQ, like `>`, is
/// false on NaN; a masked-out lane gets +0.0, the scalar `else` value,
/// or keeps its accumulator, the scalar `+ 0.0`), multiplies and adds
/// stay separate instructions (no FMA contraction), and each
/// accumulator sums in the same ascending-sample order.
///
/// # Safety
///
/// The CPU must support avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pass_a_avx512(ks: &[f64], ls: &[f64], beta2: &[f64; LANES]) -> PassA {
    use std::arch::x86_64::*;
    let width = ks.len();
    assert!(width.is_multiple_of(LANES) && ls.len() == width);
    // SAFETY: both slices hold `width` elements, a multiple of LANES
    // (= 8, one zmm), so each unaligned 8-lane load stays in bounds.
    unsafe {
        let b2 = _mm512_loadu_pd(beta2.as_ptr());
        let eps = _mm512_set1_pd(1e-9);
        let one = _mm512_set1_pd(1.0);
        let mut kept = _mm512_setzero_pd();
        let mut g00 = _mm512_setzero_pd();
        let mut g01 = _mm512_setzero_pd();
        let mut g11 = _mm512_setzero_pd();
        let mut rhs0 = _mm512_setzero_pd();
        let mut rhs1 = _mm512_setzero_pd();
        let mut off = 0;
        while off < width {
            let (r0, r1, y, m) = row_avx512(ks.as_ptr().add(off), ls.as_ptr().add(off), b2, eps);
            kept = _mm512_mask_add_pd(kept, m, kept, one);
            g00 = _mm512_add_pd(g00, _mm512_mul_pd(r0, r0));
            g01 = _mm512_add_pd(g01, _mm512_mul_pd(r0, r1));
            g11 = _mm512_add_pd(g11, _mm512_mul_pd(r1, r1));
            rhs0 = _mm512_add_pd(rhs0, _mm512_mul_pd(r0, y));
            rhs1 = _mm512_add_pd(rhs1, _mm512_mul_pd(r1, y));
            off += LANES;
        }
        let mut keptv = [0.0_f64; LANES];
        let mut out = PassA {
            kept: [0; LANES],
            g00: [0.0; LANES],
            g01: [0.0; LANES],
            g11: [0.0; LANES],
            rhs0: [0.0; LANES],
            rhs1: [0.0; LANES],
        };
        _mm512_storeu_pd(keptv.as_mut_ptr(), kept);
        _mm512_storeu_pd(out.g00.as_mut_ptr(), g00);
        _mm512_storeu_pd(out.g01.as_mut_ptr(), g01);
        _mm512_storeu_pd(out.g11.as_mut_ptr(), g11);
        _mm512_storeu_pd(out.rhs0.as_mut_ptr(), rhs0);
        _mm512_storeu_pd(out.rhs1.as_mut_ptr(), rhs1);
        out.kept = keptv.map(|c| c as u64);
        out
    }
}

/// [`row`] for eight lanes at once: loads one sample slot of `ks`/`ls`
/// and returns `(r0, r1, y)` plus the keep mask, with the same
/// operations in the same order.
///
/// # Safety
///
/// The CPU must support avx512f, and `ks` and `ls` must each point to
/// eight readable f64s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn row_avx512(
    ks: *const f64,
    ls: *const f64,
    b2: std::arch::x86_64::__m512d,
    eps: std::arch::x86_64::__m512d,
) -> (
    std::arch::x86_64::__m512d,
    std::arch::x86_64::__m512d,
    std::arch::x86_64::__m512d,
    std::arch::x86_64::__mmask8,
) {
    use std::arch::x86_64::*;
    // SAFETY: the caller guarantees avx512f and eight readable f64s at
    // `ks` and `ls` (see `# Safety`).
    unsafe {
        let gap = _mm512_sub_pd(_mm512_loadu_pd(ls), b2);
        let m = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(gap, eps);
        let r1 = _mm512_maskz_mul_pd(m, gap, gap);
        let r0 = _mm512_mul_pd(r1, _mm512_loadu_pd(ks));
        (r0, r1, _mm512_maskz_mov_pd(m, gap), m)
    }
}

/// One full dual sweep, portable form: `w = Aᵀ(y − A·x)` per lane, with
/// the rows rebuilt by [`row`]. `nnls_with`'s `mul_vec`/`tr_mul_vec`
/// pair is fused rowwise: each row's residual and its two accumulations
/// into `w` happen in the same order as there.
fn sweep_scalar(
    ks: &[f64],
    ls: &[f64],
    beta2: &[f64; LANES],
    x0: &[f64; LANES],
    x1: &[f64; LANES],
) -> ([f64; LANES], [f64; LANES]) {
    let mut w0 = [0.0_f64; LANES];
    let mut w1 = [0.0_f64; LANES];
    for (ks, ls) in ks.chunks_exact(LANES).zip(ls.chunks_exact(LANES)) {
        for j in 0..LANES {
            let (r0, r1, y, _) = row(ks[j], ls[j], beta2[j]);
            let mut acc = 0.0;
            acc += r0 * x0[j];
            acc += r1 * x1[j];
            let resid = y - acc;
            w0[j] += r0 * resid;
            w1[j] += r1 * resid;
        }
    }
    (w0, w1)
}

/// [`sweep_scalar`] with explicit AVX-512 intrinsics, under
/// [`pass_a_avx512`]'s bit-identity rules (`0.0 + r0·x0` keeps its add:
/// it turns a −0.0 product into +0.0, as the scalar form does).
///
/// # Safety
///
/// The CPU must support avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sweep_avx512(
    ks: &[f64],
    ls: &[f64],
    beta2: &[f64; LANES],
    x0: &[f64; LANES],
    x1: &[f64; LANES],
) -> ([f64; LANES], [f64; LANES]) {
    use std::arch::x86_64::*;
    let width = ks.len();
    assert!(width.is_multiple_of(LANES) && ls.len() == width);
    // SAFETY: as in `pass_a_avx512`.
    unsafe {
        let b2 = _mm512_loadu_pd(beta2.as_ptr());
        let eps = _mm512_set1_pd(1e-9);
        let zero = _mm512_setzero_pd();
        let x0v = _mm512_loadu_pd(x0.as_ptr());
        let x1v = _mm512_loadu_pd(x1.as_ptr());
        let mut w0 = _mm512_setzero_pd();
        let mut w1 = _mm512_setzero_pd();
        let mut off = 0;
        while off < width {
            let (r0, r1, y, _) = row_avx512(ks.as_ptr().add(off), ls.as_ptr().add(off), b2, eps);
            let acc = _mm512_add_pd(zero, _mm512_mul_pd(r0, x0v));
            let acc = _mm512_add_pd(acc, _mm512_mul_pd(r1, x1v));
            let resid = _mm512_sub_pd(y, acc);
            w0 = _mm512_add_pd(w0, _mm512_mul_pd(r0, resid));
            w1 = _mm512_add_pd(w1, _mm512_mul_pd(r1, resid));
            off += LANES;
        }
        let mut out = ([0.0_f64; LANES], [0.0_f64; LANES]);
        _mm512_storeu_pd(out.0.as_mut_ptr(), w0);
        _mm512_storeu_pd(out.1.as_mut_ptr(), w1);
        out
    }
}

/// Executes one wave of β₂ candidate evaluations as SoA passes —
/// build + Gram, lockstep NNLS duals, residual accumulation — on the
/// requests in `scratch.reqs`, writing each lane's outcome and NNLS
/// facts to `scratch.outs`.
///
/// Dispatches to an AVX-512 compilation of the same body when the CPU
/// has it — with eight f64 lanes the accumulator arrays want the wider
/// register file; the arithmetic is lane-wise IEEE either way (rustc
/// performs no FMA contraction), so results are bit-identical across
/// targets.
fn eval_wave(scratch: &mut BatchScratch, max_len: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the avx512f requirement was just checked at runtime.
        return unsafe { eval_wave_avx512(scratch, max_len) };
    }
    eval_wave_body(scratch, max_len, false)
}

/// The wave body compiled with AVX-512 codegen enabled (the
/// `inline(always)` body is compiled with this function's target
/// features).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn eval_wave_avx512(scratch: &mut BatchScratch, max_len: usize) {
    eval_wave_body(scratch, max_len, true)
}

#[inline(always)]
fn eval_wave_body(scratch: &mut BatchScratch, max_len: usize, use_avx512: bool) {
    let reqs = scratch.reqs;
    let lens = scratch.lens;
    let mut beta2 = [0.0_f64; LANES];
    let mut active = [false; LANES];
    for j in 0..LANES {
        if let Some(r) = reqs[j] {
            beta2[j] = r.beta2;
            active[j] = true;
        }
    }

    // Pass A — kept counts + Gram/RHS, one sweep over all samples (see
    // `pass_a_scalar` / `pass_a_avx512`). Inactive lanes compute garbage
    // against β₂ = 0 that nothing reads; padded slots take the
    // gap ≤ 1e-9 skip (see module docs).
    let width = max_len * LANES;
    let (ks, ls) = (&scratch.ks[..width], &scratch.ls[..width]);
    #[cfg(target_arch = "x86_64")]
    let pa = if use_avx512 {
        // SAFETY: `use_avx512` is true only inside `eval_wave_avx512`,
        // whose callers check for avx512f at run time.
        unsafe { pass_a_avx512(ks, ls, &beta2) }
    } else {
        pass_a_scalar(ks, ls, &beta2)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let pa = {
        let _ = use_avx512;
        pass_a_scalar(ks, ls, &beta2)
    };
    let PassA {
        kept,
        g00,
        g01,
        g11,
        rhs0,
        rhs1,
    } = pa;

    // Per-lane NNLS admission, with `fit_for_beta2`'s exact counters:
    // fewer than 2 rows fails silently (before any counter), a
    // non-finite row counts a solve *and* a failure. Post-preprocessing
    // losses are always finite, so `y` never trips `nnls_with`'s rhs
    // check — only row overflow (`w·k → ∞`) can. Every Gram diagonal
    // term is ≥ 0, so a non-finite row makes `g00` or `g11` non-finite;
    // only such a lane rescans its rows for `nnls_with`'s verdict
    // (finite rows can overflow the Gram too, and those must solve).
    let mut out = [Evaluated::default(); LANES];
    let mut st: [LaneNnls; LANES] = Default::default();
    let mut ran = [false; LANES];
    let opts = NnlsOptions::default();
    for j in 0..LANES {
        if !active[j] {
            continue;
        }
        if kept[j] < 2 {
            continue; // out[j] stays Failed, no counters — as in `fit`
        }
        out[j].facts.solved = true;
        if !(g00[j].is_finite() && g11[j].is_finite())
            && (0..lens[j]).any(|s| {
                let (r0, r1, _, _) = row(ks[s * LANES + j], ls[s * LANES + j], beta2[j]);
                !(r0.is_finite() && r1.is_finite())
            })
        {
            out[j].facts.failed = true;
            continue;
        }
        st[j].running = true;
        ran[j] = true;
    }

    // Pass B — lockstep Lawson–Hanson: one vectorized dual sweep per
    // outer iteration, then O(1) per-lane active-set advancement from
    // the cached Gram. Lanes that converge (or fail) sit out the
    // remaining sweeps with x frozen, contributing dead work only.
    let mut x0 = [0.0_f64; LANES];
    let mut x1 = [0.0_f64; LANES];
    let mut first_sweep = true;
    while st.iter().any(|l| l.running) {
        let (w0, w1) = if first_sweep {
            // With x = 0 the fused rowwise dual degenerates term by
            // term to the RHS accumulation pass A already did —
            // `acc = r·0 + r·0 = +0.0`, `resid = y − 0.0 = y` bitwise —
            // so the first sweep of every wave is free.
            first_sweep = false;
            (rhs0, rhs1)
        } else {
            #[cfg(test)]
            SWEEPS.with(|n| n.set(n.get() + 1));
            #[cfg(target_arch = "x86_64")]
            let w = if use_avx512 {
                // SAFETY: as for pass A.
                unsafe { sweep_avx512(ks, ls, &beta2, &x0, &x1) }
            } else {
                sweep_scalar(ks, ls, &beta2, &x0, &x1)
            };
            #[cfg(not(target_arch = "x86_64"))]
            let w = sweep_scalar(ks, ls, &beta2, &x0, &x1);
            w
        };
        for j in 0..LANES {
            if st[j].running {
                advance_lane(
                    &mut st[j],
                    &mut x0[j],
                    &mut x1[j],
                    [w0[j], w1[j]],
                    [g00[j], g01[j], g11[j]],
                    [rhs0[j], rhs1[j]],
                    lens[j],
                    opts,
                );
            }
        }
    }

    // Lane results: `nnls_with`'s exit-path residual (`NnlsSolution::
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
        out[j].facts.iterations = Some(st[j].iterations);
        fitted[j] = true;
        b0[j] = x0[j];
        b1[j] = x1[j];
        bb2[j] = beta2[j];
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
                beta0: x0[j],
                beta1: x1[j],
                beta2: beta2[j],
                scale: scratch.scales[j],
                residual_ss: rss[j],
            })
        };
    }
    scratch.outs = out;
}

/// Advances one lane's Lawson–Hanson state after a dual sweep — the
/// section of [`crate::nnls::nnls_with`]'s outer loop between two dual
/// recomputations, with every subproblem solved from the cached Gram.
/// The sweep itself fuses `nnls_with`'s `mul_vec`/`tr_mul_vec` pair
/// rowwise: each row's residual and its two accumulations into `w`
/// happen in the same order. Rejecting an entering column leaves `x`
/// unchanged, so the dual is unchanged too and `nnls_with`'s
/// recompute-and-rescan collapses into the `continue` here.
#[allow(clippy::too_many_arguments)]
fn advance_lane(
    st: &mut LaneNnls,
    x0: &mut f64,
    x1: &mut f64,
    w: [f64; 2],
    gram: [f64; 3],
    rhs: [f64; 2],
    n_rows: usize,
    opts: NnlsOptions,
) {
    let mut x = [*x0, *x1];
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, &wi) in w.iter().enumerate() {
            if !st.passive[i] && !st.rejected[i] && wi > opts.tolerance {
                match best {
                    Some((_, bw)) if bw >= wi => {}
                    _ => best = Some((i, wi)),
                }
            }
        }
        let Some((enter, _)) = best else {
            st.running = false; // converged: KKT satisfied
            break;
        };

        st.iterations += 1;
        if st.iterations > opts.max_iterations {
            st.err = Some(FitError::IterationLimit {
                limit: opts.max_iterations,
            });
            st.running = false;
            break;
        }

        st.passive[enter] = true;
        let trial = solve_sub2_cached(gram[0], gram[1], gram[2], rhs, n_rows, st.passive);
        let (z, m, slots) = match trial {
            Ok(v) => v,
            Err(e) => {
                st.err = Some(e);
                st.running = false;
                break;
            }
        };
        let slot = slots[..m]
            .iter()
            .position(|&i| i == enter)
            .expect("enter in P");
        if z[slot] <= opts.tolerance {
            st.passive[enter] = false;
            st.rejected[enter] = true;
            continue; // x unchanged ⇒ dual unchanged ⇒ rescan now
        }

        // `nnls_with`'s first inner iteration re-solves exactly the
        // passive set the trial just solved; hand it the trial's
        // solution instead (the iteration counter still advances).
        let mut cached = Some((z, m, slots));
        let mut failed = false;
        loop {
            st.iterations += 1;
            if st.iterations > opts.max_iterations {
                st.err = Some(FitError::IterationLimit {
                    limit: opts.max_iterations,
                });
                st.running = false;
                failed = true;
                break;
            }
            let (z, m, slots) = match cached.take() {
                Some(zs) => zs,
                None => {
                    match solve_sub2_cached(gram[0], gram[1], gram[2], rhs, n_rows, st.passive) {
                        Ok(v) => v,
                        Err(e) => {
                            st.err = Some(e);
                            st.running = false;
                            failed = true;
                            break;
                        }
                    }
                }
            };

            let all_positive = z[..m].iter().all(|&zi| zi > opts.tolerance);
            if all_positive {
                for (slot, &i) in slots[..m].iter().enumerate() {
                    x[i] = z[slot];
                }
                for (xi, &p) in x.iter_mut().zip(st.passive.iter()) {
                    if !p {
                        *xi = 0.0;
                    }
                }
                st.rejected = [false; 2];
                break;
            }

            let mut alpha = f64::INFINITY;
            for (slot, &i) in slots[..m].iter().enumerate() {
                if z[slot] <= opts.tolerance {
                    let denom = x[i] - z[slot];
                    if denom > 0.0 {
                        alpha = alpha.min(x[i] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (slot, &i) in slots[..m].iter().enumerate() {
                x[i] += alpha * (z[slot] - x[i]);
            }
            for &i in &slots[..m] {
                if x[i] <= opts.tolerance {
                    x[i] = 0.0;
                    st.passive[i] = false;
                }
            }
            if !st.passive.iter().any(|&p| p) {
                break;
            }
        }
        if failed {
            break;
        }
        // x changed (or P emptied): a fresh dual sweep is needed before
        // the next entering-column scan — unless no column can enter
        // whatever the dual holds. `nnls_with` would then recompute the
        // dual only for its scan to find no candidate, counting nothing,
        // so the lane converges here and the sweep is skipped.
        if (0..2).all(|i| st.passive[i] || st.rejected[i]) {
            st.running = false;
        }
        break;
    }
    *x0 = x[0];
    *x1 = x[1];
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
            let before = (WAVES.with(|w| w.get()), SWEEPS.with(|n| n.get()));
            fit_batch(&mut jobs, &mut scratch, &mut out);
            (
                WAVES.with(|w| w.get()) - before.0,
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
    /// under a quarter of the waves of the one-lane walk, which is what
    /// each job of a full group still runs: one wave per evaluation
    /// (warm index, 31 more grid points, 2 + 40 probes, the midpoint).
    #[test]
    fn a_lone_job_fills_every_lane() {
        let raw = history(400);
        let (one_lane, _) = warm_refit_waves(&raw, LANES);
        let (lone, _) = warm_refit_waves(&raw, 1);
        assert_eq!((one_lane, lone), (75, 18));
    }

    /// A wave's first dual sweep is free (it is pass A's RHS), and a
    /// lane whose columns are all passive or rejected converges without
    /// the sweep `nnls_with` would spend on a scan that cannot pick a
    /// column. A typical candidate enters one column on the free sweep
    /// and the other on one full sweep, so the warm lone-job refit runs
    /// about one full sweep per wave, not two.
    #[test]
    fn dead_dual_sweeps_are_skipped() {
        let (waves, sweeps) = warm_refit_waves(&history(400), 1);
        assert_eq!((waves, sweeps), (18, 18));
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
                    eval_wave_body(&mut scratch, max_len, false);
                    let portable = scratch.outs.map(|e| key(&e));
                    // SAFETY: avx512f was detected above.
                    unsafe { eval_wave_avx512(&mut scratch, max_len) };
                    let avx512 = scratch.outs.map(|e| key(&e));
                    assert_eq!(portable, avx512, "group {g} wave {wave}");
                }
            }
        }
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

    /// Jobs that fail the prologue get no lane; every live job gets
    /// ⌊LANES/n⌋ or ⌈LANES/n⌉, including a flat `hi == 0` one.
    #[test]
    fn lanes_go_only_to_live_jobs() {
        let fitter = LossCurveFitter::new();
        let healthy = history(120);
        let flat: Vec<LossSample> = (0..4).map(|k| (k, 1.0)).collect();
        let short: Vec<LossSample> = vec![(0, 1.0), (1, 0.9)];
        let raws = [&short[..], &flat[..], &healthy[..], &short[..]];
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
        assert_eq!(scratch.owner, [1, 2, 1, 2, 1, 2, 1, 2]);
        for (raw, res) in raws.iter().zip(&out) {
            assert_eq!(res, &fitter.fit(raw));
        }
    }
}
