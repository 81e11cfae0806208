//! # logit-bench
//!
//! Experiment harness and throughput baselines.
//!
//! Every quantitative claim of the paper has an experiment (E1–E14, see
//! `DESIGN.md` for the index). Each experiment is a library function in
//! [`experiments`] returning a plain-text report (a header plus a CSV-ish
//! table), and a thin binary in `src/bin/` prints it; `run_all_experiments`
//! regenerates the data behind `EXPERIMENTS.md` in one go.
//!
//! `bench_engines` emits the committed `BENCH_step_throughput.json` after
//! its in-process gates pass, and `stream_hash` prints the cross-commit
//! stream probe.

pub mod experiments;
pub mod table;

pub use table::Table;
