//! Run every experiment of the paper at the ledger's size and print
//! `EXPERIMENTS.md` to stdout. No flags, no environment variables:
//!
//! ```text
//! cargo run --release -p bcpnn-bench --bin reproduce > EXPERIMENTS.md
//! ```

use bcpnn_bench::experiments::{host_line, render_ledger, run_all, Size};

fn main() {
    let experiments = run_all(Size::Ledger);
    print!(
        "{}",
        render_ledger(Size::Ledger, &host_line(), &experiments)
    );
}
