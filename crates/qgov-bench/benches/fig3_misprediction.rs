//! Regenerates **Fig. 3** of Biswas et al., DATE 2017: workload
//! misprediction for MPEG4 decoding at 24 fps (EWMA γ = 0.6) and the
//! learning impact on the average slack ratio. Prints the headline
//! statistics and writes the base seed's full series to
//! `target/fig3_misprediction.csv` for plotting.
//!
//! Run with `cargo bench -p qgov-bench --bench fig3_misprediction`.
//! `QGOV_FRAMES` overrides the run length (the paper's figure shows the
//! first 240 frames; the recorded baseline uses the full 3000);
//! `QGOV_WORKERS` picks the runner policy; `QGOV_SEEDS` the seed sweep
//! (a count or a comma-separated list; default one seed, matching the
//! recorded single-run baselines).

use qgov_bench::experiments::run_fig3_with;
use qgov_bench::perf::{append_records, passes_from_env, timed_passes, wall_clock, BenchRecord};
use qgov_bench::runner::{frames_from_env, RunnerConfig};
use qgov_bench::sweep::{sweep_metrics, sweep_table, SeedSweep};
use qgov_bench::worklist::Family;
use qgov_metrics::fold_by_name;

const TARGET: &str = "fig3_misprediction";

fn main() {
    let frames = frames_from_env(3_000);
    let sweep = SeedSweep::from_env(2017);
    let runner = RunnerConfig::from_env();
    let passes = passes_from_env(3);
    println!("== Fig. 3: workload misprediction and learning impact on slack ==");
    println!(
        "   MPEG4 SVGA at 24 fps, gamma = 0.6, {frames} frames, {}",
        sweep.describe()
    );
    println!("   (scene change scripted at frame 90, as in the paper's sequence)");
    println!("   runner: {}\n", runner.describe());
    let (cells, secs) = timed_passes(passes, || {
        sweep_metrics(Family::Fig3, &sweep, frames, None, &runner)
    });
    let summaries = fold_by_name(&cells);

    println!("{}", sweep_table(Family::Fig3, &summaries).render());
    println!("paper reference: early ~8%, late ~3%");
    // The plottable series is inherently per-seed: the first (base)
    // seed's run, as the single-run baseline always has.
    let base = sweep.seeds()[0];
    let first = run_fig3_with(base, frames, &runner);
    if sweep.n() == 1 {
        println!(
            "frames with >15% misprediction: {:?}",
            first.mispredicted_frames
        );
    }

    let out = std::path::Path::new("target").join("fig3_misprediction.csv");
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&out, &first.csv) {
        Ok(()) => println!("full series (seed {base}) written to {}", out.display()),
        Err(e) => println!("could not write {}: {e}", out.display()),
    }
    let wall_clock = wall_clock(TARGET, &secs, &runner);

    let mut records = vec![wall_clock];
    records.extend(BenchRecord::from_summaries(TARGET, &summaries));
    append_records(&records);
}
