//! Calibrate the cost profile for the reference executor shape on this
//! host and print (or write) its JSON; the tool that produced
//! `crates/planner/profiles/reference.json`.
//!
//! ```text
//! cargo run --release -p slimpipe-planner --bin calibrate_profile [out.json]
//! ```

use slimpipe_exec::ExecConfig;
use slimpipe_planner::{calibrate, CalibrationOpts};

fn main() {
    let cfg = ExecConfig::small();
    let opts = CalibrationOpts {
        token_sizes: vec![8, 16, 32, 48],
        chunk_counts: vec![0, 1, 3],
        repeats: 5,
    };
    let out = calibrate(&cfg, &opts).to_json();
    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &out).expect("write profile");
            eprintln!("profile written to {path}");
        }
        None => print!("{out}"),
    }
}
