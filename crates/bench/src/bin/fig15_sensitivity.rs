//! Fig 15 (+ the §4.1 priority-factor study): sensitivity of Optimus to
//! prediction errors.
//!
//! The scheduler is fed `truth × (1 ± e·(1−progress))` for the
//! convergence estimate or the speed estimate at error levels
//! e ∈ {0, 15, 30, 45} %; JCT and makespan degrade with e, with
//! diminishing slope, and speed errors hurt more than convergence
//! errors. The paper also reports that a 0.95 priority factor improves
//! JCT/makespan slightly (2.66 % / 1.88 %).

use optimus_bench::{
    aggregate, available_threads, print_series, run_indexed, ComparisonSpec, SchedulerChoice,
};
use optimus_simulator::ErrorInjection;
use optimus_workload::ArrivalProcess;

/// Aggregates one error-injection variant's slice of the fanned-out
/// report grid into `(avg JCT, makespan)`.
fn agg_variant(reports: &[optimus_simulator::SimReport]) -> (f64, f64) {
    let agg = aggregate("Optimus".into(), reports);
    (agg.avg_jct, agg.makespan)
}

fn main() {
    // A contended 18-job workload: injected estimate errors act on the
    // scheduler only through cross-job ordering, which needs scarcity
    // to matter (see the note printed at the end).
    let spec = ComparisonSpec {
        arrivals: ArrivalProcess::paper_default(18),
        ..ComparisonSpec::default()
    };
    // More seeds than the headline run: sensitivity differences are
    // small (the paper averages 100 simulator runs).
    let seeds: Vec<u64> = (0..8).map(|i| 17 + 13 * i).collect();
    let threads = available_threads();

    // The whole error-level grid is one flat (injection, seed) cell
    // list fanned across cores; results come back in input order, so
    // the aggregation below is independent of the worker schedule.
    let levels = [0.0, 0.15, 0.30, 0.45];
    let mut variants: Vec<ErrorInjection> = vec![ErrorInjection::NONE];
    for &e in &levels {
        variants.push(ErrorInjection {
            convergence_error: e,
            speed_error: 0.0,
        });
    }
    for &e in &levels {
        variants.push(ErrorInjection {
            convergence_error: 0.0,
            speed_error: e,
        });
    }
    variants.push(ErrorInjection {
        convergence_error: 0.20,
        speed_error: 0.10,
    });
    let cells: Vec<(ErrorInjection, u64)> = variants
        .iter()
        .flat_map(|&inject| seeds.iter().map(move |&s| (inject, s)))
        .collect();
    let reports = run_indexed(&cells, threads, |_, &(inject, seed)| {
        let mut s = spec.clone();
        s.base_config.inject = Some(inject);
        optimus_bench::run_one(&s, SchedulerChoice::Optimus, seed)
    });
    let per = seeds.len();
    let variant = |v: usize| agg_variant(&reports[v * per..(v + 1) * per]);

    let (base_jct, base_mk) = variant(0);
    eprintln!("fig15: {threads} threads");
    println!(
        "Fig 15: sensitivity to prediction errors ({} seeds)\n",
        seeds.len()
    );

    let mut conv_jct = Vec::new();
    let mut conv_mk = Vec::new();
    let mut speed_jct = Vec::new();
    let mut speed_mk = Vec::new();
    for (n, &e) in levels.iter().enumerate() {
        let (jct, mk) = variant(1 + n);
        conv_jct.push((e * 100.0, jct / base_jct));
        conv_mk.push((e * 100.0, mk / base_mk));
        let (jct, mk) = variant(1 + levels.len() + n);
        speed_jct.push((e * 100.0, jct / base_jct));
        speed_mk.push((e * 100.0, mk / base_mk));
    }
    print_series(
        "(a) JCT vs convergence error",
        "error %",
        "norm JCT",
        &conv_jct,
    );
    print_series("(a) JCT vs speed error", "error %", "norm JCT", &speed_jct);
    print_series(
        "(b) makespan vs convergence error",
        "error %",
        "norm mkspan",
        &conv_mk,
    );
    print_series(
        "(b) makespan vs speed error",
        "error %",
        "norm mkspan",
        &speed_mk,
    );
    println!(
        "paper: both rise with error at diminishing slope; speed error hurts more; a\n\
         20 % convergence + 10 % speed error costs ~15 %.\n"
    );
    let (mixed_jct, _) = variant(variants.len() - 1);
    println!(
        "combined 20 % conv + 10 % speed error: JCT ×{:.3} of error-free",
        mixed_jct / base_jct
    );

    // Priority-factor study (§6.3): compare factors 1.0 and 0.95 with
    // the emergent (estimator-driven) errors — same fan-out pattern.
    let pf_choices = [
        SchedulerChoice::Optimus,
        SchedulerChoice::OptimusWithPriority(0.95),
    ];
    let pf_cells: Vec<(SchedulerChoice, u64)> = pf_choices
        .iter()
        .flat_map(|&c| seeds.iter().map(move |&s| (c, s)))
        .collect();
    let pf_reports = run_indexed(&pf_cells, threads, |_, &(choice, seed)| {
        optimus_bench::run_one(&spec, choice, seed)
    });
    let a1 = aggregate("pf=1.0".into(), &pf_reports[..per]);
    let a95 = aggregate("pf=0.95".into(), &pf_reports[per..]);
    println!(
        "\npriority factor 0.95 vs 1.0: JCT {:+.2} %, makespan {:+.2} % (paper: −2.66 %, −1.88 %)",
        100.0 * (a95.avg_jct - a1.avg_jct) / a1.avg_jct,
        100.0 * (a95.makespan - a1.makespan) / a1.makespan,
    );

    println!(
        "\nREPRODUCTION NOTE: this reimplementation is markedly *less* sensitive to\n\
         multiplicative estimate errors than the paper reports (≤ ~2 % vs up to ~40 %).\n\
         The mechanism: scaling a job's remaining work Q or its whole speed function\n\
         f(·) leaves the marginal-gain stopping point unchanged (gains just rescale),\n\
         so errors act only by reordering jobs competing for scarce capacity — a\n\
         second-order effect on this testbed. See EXPERIMENTS.md."
    );
}
