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
//! the hottest one (row build + Gram/RHS) hand-vectorized via
//! intrinsics. Per-job *control* (grid walk, memoization,
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
//!   *requests* one β₂ evaluation at a time ([`JobWalk::next_request`])
//!   and consumes its outcome ([`JobWalk::consume`]). The lanes of a
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
//! * **Gram caching is exact.** The Lawson–Hanson subproblem Gram/RHS
//!   depend on the rows only, so they are computed once per candidate in
//!   the build pass and every active-set solve replays through
//!   [`solve_sub2_cached`] in O(1) — same accumulation order as
//!   `Matrix::gram`, whose zero-row guards only ever skip exactly-zero
//!   terms.
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

/// Reusable buffers for [`fit_batch`]: the SoA sample and row buffers
/// plus the lane tables of the group in flight. Create once, pass to
/// every call; the vectors grow to the largest group seen and are then
/// reused, and the lane tables are fixed-size, so no wave allocates.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Step indices as f64 (`k as f64`, `fit`'s conversion),
    /// lane-major: sample `s` of lane `j` lives at `s * LANES + j`.
    ks: Vec<f64>,
    /// Preprocessed losses, same layout.
    ls: Vec<f64>,
    /// Regression row column 0 (`w·k`) for the current wave.
    row0: Vec<f64>,
    /// Regression row column 1 (`w`).
    row1: Vec<f64>,
    /// Regression targets (`gap`).
    yv: Vec<f64>,
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
    let mut pro: Vec<Prologue> = Vec::with_capacity(group.len());
    let mut live = [0usize; LANES];
    let mut n_live = 0usize;
    let mut max_len = 0usize;
    for job in group.iter_mut() {
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
            pro.push(Prologue {
                err: Some(FitError::NotEnoughSamples {
                    got: distinct,
                    need: 3,
                }),
                hi: 0.0,
                scale,
                len: 0,
            });
            continue;
        }
        let min_loss = samples
            .iter()
            .map(|&(_, l)| l)
            .fold(f64::INFINITY, f64::min);
        if !min_loss.is_finite() {
            pro.push(Prologue {
                err: Some(FitError::NonFiniteInput {
                    context: "loss samples after preprocessing",
                }),
                hi: 0.0,
                scale,
                len: 0,
            });
            continue;
        }
        let hi = (min_loss - 1e-9).max(0.0);
        max_len = max_len.max(samples.len());
        live[n_live] = pro.len();
        n_live += 1;
        pro.push(Prologue {
            err: None,
            hi,
            scale,
            len: samples.len(),
        });
    }

    // Pass 2 — deal the lanes round-robin to the live jobs, so each of
    // n holds ⌊LANES/n⌋ or ⌈LANES/n⌉ (one each in a full group), and
    // gather each job's samples into every lane it owns (padding stays
    // 0.0).
    let width = max_len * LANES;
    scratch.ks.clear();
    scratch.ks.resize(width, 0.0);
    scratch.ls.clear();
    scratch.ls.resize(width, 0.0);
    scratch.row0.clear();
    scratch.row0.resize(width, 0.0);
    scratch.row1.clear();
    scratch.row1.resize(width, 0.0);
    scratch.yv.clear();
    scratch.yv.resize(width, 0.0);
    scratch.reqs = [None; LANES]; // no look-ahead from the previous group
    if n_live > 0 {
        scratch.owner = std::array::from_fn(|j| live[j % n_live]);
        for j in 0..LANES {
            let k = scratch.owner[j];
            scratch.lens[j] = pro[k].len;
            scratch.scales[j] = pro[k].scale;
            for (s, &(step, l)) in group[k].session.pre.samples().iter().enumerate() {
                scratch.ks[s * LANES + j] = step as f64;
                scratch.ls[s * LANES + j] = l;
            }
        }
    }

    // Pass 3 — build the job walks (mutable borrows into each job's
    // session memo + warm index; `pre` is no longer needed).
    let mut walks: Vec<JobWalk<'_>> = Vec::with_capacity(group.len());
    for (job, p) in group.iter_mut().zip(pro.iter()) {
        let FitSession {
            memo,
            warm_grid_index,
            ..
        } = &mut *job.session;
        walks.push(JobWalk::new(
            job.fitter,
            memo,
            warm_grid_index,
            p.hi,
            p.err.clone(),
        ));
    }

    // Wave loop: each walk consumes what its lanes computed last wave,
    // then fills its lanes with its frontier request and look-ahead;
    // one SoA pass evaluates them all.
    let mut frontier: [Option<EvalReq>; LANES] = [None; LANES];
    loop {
        for (k, walk) in walks.iter_mut().enumerate() {
            frontier[k] = walk.drain(frontier[k], |bits| scratch.answered(k, bits));
        }
        scratch.reqs = [None; LANES];
        let mut any = false;
        for (k, walk) in walks.iter().enumerate() {
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
    for walk in walks {
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
    /// True iff some kept row overflowed to a non-finite value.
    bad: [bool; LANES],
    g00: [f64; LANES],
    g01: [f64; LANES],
    g11: [f64; LANES],
    rhs0: [f64; LANES],
    rhs1: [f64; LANES],
}

/// Pass A, portable form: builds regression rows (`w·k`, `w`, `gap`)
/// and accumulates the Gram matrix and RHS in ascending-sample order —
/// the exact order `Matrix::gram` and `Matrix::tr_mul_vec` sum them, so
/// every f64 is bit-identical.
///
/// Two loops, not one: each is simple enough for the SLP vectorizer,
/// where the fused body spills accumulators and compiles scalar. The
/// split is free of observable effect — the Gram loop re-reads the
/// rows the build loop just wrote, and each accumulator still sums in
/// ascending `s`. The two non-arithmetic facts admission needs ride
/// along as f64 lanes: `kept` counts rows as +1.0 increments (exact up
/// to 2⁵³), and `nonfin` accumulates `(r0 − r0) + (r1 − r1)` — +0.0
/// for finite rows, NaN exactly when a row overflowed (`nnls_with`'s
/// row-validation verdict). LLVM cannot fold `x − x` to zero
/// without fast-math, so the check survives optimization.
fn pass_a_scalar(scratch: &mut BatchScratch, width: usize, beta2: &[f64; LANES]) -> PassA {
    let mut kept = [0.0_f64; LANES];
    let mut nonfin = [0.0_f64; LANES];
    let mut g00 = [0.0_f64; LANES];
    let mut g01 = [0.0_f64; LANES];
    let mut g11 = [0.0_f64; LANES];
    let mut rhs0 = [0.0_f64; LANES];
    let mut rhs1 = [0.0_f64; LANES];
    for ((ks, ls), ((row0, row1), yv)) in scratch.ks[..width]
        .chunks_exact(LANES)
        .zip(scratch.ls[..width].chunks_exact(LANES))
        .zip(
            scratch.row0[..width]
                .chunks_exact_mut(LANES)
                .zip(scratch.row1[..width].chunks_exact_mut(LANES))
                .zip(scratch.yv[..width].chunks_exact_mut(LANES)),
        )
    {
        let ks: &[f64; LANES] = ks.try_into().expect("exact chunk");
        let ls: &[f64; LANES] = ls.try_into().expect("exact chunk");
        let row0: &mut [f64; LANES] = row0.try_into().expect("exact chunk");
        let row1: &mut [f64; LANES] = row1.try_into().expect("exact chunk");
        let yv: &mut [f64; LANES] = yv.try_into().expect("exact chunk");
        for j in 0..LANES {
            let gap = ls[j] - beta2[j];
            let keep = gap > 1e-9;
            let w = gap * gap;
            let r0 = if keep { w * ks[j] } else { 0.0 };
            let r1 = if keep { w } else { 0.0 };
            let y = if keep { gap } else { 0.0 };
            row0[j] = r0;
            row1[j] = r1;
            yv[j] = y;
            kept[j] += if keep { 1.0 } else { 0.0 };
            // `x − x` is the NaN probe, not a typo: +0.0 for finite x,
            // NaN otherwise, and LLVM cannot fold it without fast-math.
            #[allow(clippy::eq_op)]
            {
                nonfin[j] += (r0 - r0) + (r1 - r1);
            }
        }
    }
    for (row0, (row1, yv)) in scratch.row0[..width].chunks_exact(LANES).zip(
        scratch.row1[..width]
            .chunks_exact(LANES)
            .zip(scratch.yv[..width].chunks_exact(LANES)),
    ) {
        let row0: &[f64; LANES] = row0.try_into().expect("exact chunk");
        let row1: &[f64; LANES] = row1.try_into().expect("exact chunk");
        let yv: &[f64; LANES] = yv.try_into().expect("exact chunk");
        for j in 0..LANES {
            let r0 = row0[j];
            let r1 = row1[j];
            let y = yv[j];
            g00[j] += r0 * r0;
            g01[j] += r0 * r1;
            g11[j] += r1 * r1;
            rhs0[j] += r0 * y;
            rhs1[j] += r1 * y;
        }
    }
    PassA {
        kept: std::array::from_fn(|j| kept[j] as u64),
        bad: std::array::from_fn(|j| nonfin[j] != 0.0),
        g00,
        g01,
        g11,
        rhs0,
        rhs1,
    }
}

/// Pass A with explicit AVX-512 intrinsics — one fused sweep, eight
/// lanes per `zmm` register. The autovectorizer never vectorizes the
/// scalar form (the select-heavy body defeats SLP), so this path spells
/// out the same dataflow by hand.
///
/// Bit-identity with `pass_a_scalar` holds operation by operation:
/// every intrinsic used (`sub/mul/add_pd`, `cmp_pd GT_OQ`,
/// `maskz_mov`) is lane-wise IEEE 754 with the scalar op's exact
/// semantics (GT_OQ, like `>`, is false on NaN), multiplies and adds
/// stay separate instructions (no FMA contraction), and each
/// accumulator sums in the same ascending-sample order. The only
/// difference from `pass_a_scalar` is that masked-out products are
/// computed and then discarded — their lanes are overwritten with +0.0
/// by `maskz_mov`, exactly the scalar `else` value.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pass_a_avx512(scratch: &mut BatchScratch, width: usize, beta2: &[f64; LANES]) -> PassA {
    use std::arch::x86_64::*;
    debug_assert!(width.is_multiple_of(LANES));
    debug_assert!(scratch.ks.len() >= width && scratch.ls.len() >= width);
    debug_assert!(
        scratch.row0.len() >= width && scratch.row1.len() >= width && scratch.yv.len() >= width
    );
    // SAFETY: callers size every scratch row to at least `width`
    // elements and `width` is a multiple of LANES (= 8, one zmm), so
    // each unaligned 8-lane load/store below stays in bounds.
    unsafe {
        let b2 = _mm512_loadu_pd(beta2.as_ptr());
        let eps = _mm512_set1_pd(1e-9);
        let one = _mm512_set1_pd(1.0);
        let mut kept = _mm512_setzero_pd();
        let mut nonfin = _mm512_setzero_pd();
        let mut g00 = _mm512_setzero_pd();
        let mut g01 = _mm512_setzero_pd();
        let mut g11 = _mm512_setzero_pd();
        let mut rhs0 = _mm512_setzero_pd();
        let mut rhs1 = _mm512_setzero_pd();
        let ks_p = scratch.ks.as_ptr();
        let ls_p = scratch.ls.as_ptr();
        let row0_p = scratch.row0.as_mut_ptr();
        let row1_p = scratch.row1.as_mut_ptr();
        let yv_p = scratch.yv.as_mut_ptr();
        let mut off = 0;
        while off < width {
            let ks = _mm512_loadu_pd(ks_p.add(off));
            let ls = _mm512_loadu_pd(ls_p.add(off));
            let gap = _mm512_sub_pd(ls, b2);
            let m: __mmask8 = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(gap, eps);
            let w = _mm512_mul_pd(gap, gap);
            let r0 = _mm512_maskz_mov_pd(m, _mm512_mul_pd(w, ks));
            let r1 = _mm512_maskz_mov_pd(m, w);
            let y = _mm512_maskz_mov_pd(m, gap);
            _mm512_storeu_pd(row0_p.add(off), r0);
            _mm512_storeu_pd(row1_p.add(off), r1);
            _mm512_storeu_pd(yv_p.add(off), y);
            kept = _mm512_add_pd(kept, _mm512_maskz_mov_pd(m, one));
            nonfin = _mm512_add_pd(
                nonfin,
                _mm512_add_pd(_mm512_sub_pd(r0, r0), _mm512_sub_pd(r1, r1)),
            );
            g00 = _mm512_add_pd(g00, _mm512_mul_pd(r0, r0));
            g01 = _mm512_add_pd(g01, _mm512_mul_pd(r0, r1));
            g11 = _mm512_add_pd(g11, _mm512_mul_pd(r1, r1));
            rhs0 = _mm512_add_pd(rhs0, _mm512_mul_pd(r0, y));
            rhs1 = _mm512_add_pd(rhs1, _mm512_mul_pd(r1, y));
            off += LANES;
        }
        let mut keptv = [0.0_f64; LANES];
        let mut nonfinv = [0.0_f64; LANES];
        let mut out = PassA {
            kept: [0; LANES],
            bad: [false; LANES],
            g00: [0.0; LANES],
            g01: [0.0; LANES],
            g11: [0.0; LANES],
            rhs0: [0.0; LANES],
            rhs1: [0.0; LANES],
        };
        _mm512_storeu_pd(keptv.as_mut_ptr(), kept);
        _mm512_storeu_pd(nonfinv.as_mut_ptr(), nonfin);
        _mm512_storeu_pd(out.g00.as_mut_ptr(), g00);
        _mm512_storeu_pd(out.g01.as_mut_ptr(), g01);
        _mm512_storeu_pd(out.g11.as_mut_ptr(), g11);
        _mm512_storeu_pd(out.rhs0.as_mut_ptr(), rhs0);
        _mm512_storeu_pd(out.rhs1.as_mut_ptr(), rhs1);
        out.kept = std::array::from_fn(|j| keptv[j] as u64);
        out.bad = std::array::from_fn(|j| nonfinv[j] != 0.0);
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

    // Pass A — regression rows + Gram/RHS, one sweep over all samples
    // (see `pass_a_scalar` / `pass_a_avx512`). Inactive lanes compute
    // garbage rows against β₂ = 0 that nothing reads; padded slots take
    // the gap ≤ 1e-9 skip (see module docs).
    let width = max_len * LANES;
    #[cfg(target_arch = "x86_64")]
    let pa = if use_avx512 {
        // SAFETY: `use_avx512` is only set by `eval_wave` after a
        // runtime avx512f check; the scratch rows hold `width` elements.
        unsafe { pass_a_avx512(scratch, width, &beta2) }
    } else {
        pass_a_scalar(scratch, width, &beta2)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let pa = {
        let _ = use_avx512;
        pass_a_scalar(scratch, width, &beta2)
    };
    let PassA {
        kept,
        bad,
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
    // check — only row overflow (`w·k → ∞`) can, which `bad` is.
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
        if bad[j] {
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
        let mut w0 = [0.0_f64; LANES];
        let mut w1 = [0.0_f64; LANES];
        if first_sweep {
            // With x = 0 the fused rowwise dual degenerates term by
            // term to the RHS accumulation pass A already did —
            // `acc = r·0 + r·0 = +0.0`, `resid = y − 0.0 = y` bitwise —
            // so the first sweep of every wave is free.
            first_sweep = false;
            w0 = rhs0;
            w1 = rhs1;
        } else {
            for (row0, (row1, yv)) in scratch.row0[..width].chunks_exact(LANES).zip(
                scratch.row1[..width]
                    .chunks_exact(LANES)
                    .zip(scratch.yv[..width].chunks_exact(LANES)),
            ) {
                let row0: &[f64; LANES] = row0.try_into().expect("exact chunk");
                let row1: &[f64; LANES] = row1.try_into().expect("exact chunk");
                let yv: &[f64; LANES] = yv.try_into().expect("exact chunk");
                for j in 0..LANES {
                    let r0 = row0[j];
                    let r1 = row1[j];
                    let mut acc = 0.0;
                    acc += r0 * x0[j];
                    acc += r1 * x1[j];
                    let resid = yv[j] - acc;
                    w0[j] += r0 * resid;
                    w1[j] += r1 * resid;
                }
            }
        }
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
            scratch.ks[s0 * LANES..stop * LANES]
                .chunks_exact(LANES)
                .zip(scratch.ls[s0 * LANES..stop * LANES].chunks_exact(LANES)),
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
        // the next entering-column scan.
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

    /// Waves `fit_batch` runs for `copies` sessions, each refitting
    /// `raw` warm: fitted once on all but the last 10 samples, then on
    /// all of them under an honest stable-prefix claim.
    fn warm_refit_waves(raw: &[LossSample], copies: usize) -> usize {
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
            let before = WAVES.with(|w| w.get());
            fit_batch(&mut jobs, &mut scratch, &mut out);
            WAVES.with(|w| w.get()) - before
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
        let one_lane = warm_refit_waves(&raw, LANES);
        let lone = warm_refit_waves(&raw, 1);
        assert_eq!((one_lane, lone), (75, 18));
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
