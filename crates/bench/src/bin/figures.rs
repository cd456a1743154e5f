//! Figures 3-10: the model figures, generated from the analytic cost
//! model with the paper's Table 12 parameters (see EXPERIMENTS.md for
//! the paper-vs-reproduction notes).
//!
//! ```text
//! cargo run -p wave-bench --bin figures -- <name|all>
//! ```
//!
//! prints the figure as a table and writes `results/<name>.csv`.

use wave_analytic::{figures, Figure};

/// A model figure: its name (also its CSV's) and its generator.
type Entry = (&'static str, fn() -> Figure);

const FIGURES: [Entry; 8] = [
    ("fig03_scam_space", figures::fig3_scam_space),
    ("fig04_scam_transition", figures::fig4_scam_transition),
    ("fig05_scam_work", figures::fig5_scam_work),
    ("fig06_wse_work", figures::fig6_wse_work),
    ("fig07_tpcd_packed", figures::fig7_tpcd_work_packed),
    ("fig08_tpcd_simple", figures::fig8_tpcd_work_simple),
    ("fig09_scam_window", figures::fig9_scam_window_scaling),
    ("fig10_scam_scale", figures::fig10_scam_scale_factor),
];

fn main() -> std::process::ExitCode {
    let which = std::env::args().nth(1).unwrap_or_default();
    let chosen: Vec<_> = FIGURES
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: figures <{}|all>", names.join("|"));
        return std::process::ExitCode::FAILURE;
    }
    for (name, generate) in chosen {
        let fig = generate();
        print!("{}", wave_bench::render_figure(&fig));
        let path = wave_bench::write_figure_csv(&fig, name).expect("write csv");
        println!("\nCSV written to {}", path.display());
    }
    std::process::ExitCode::SUCCESS
}
