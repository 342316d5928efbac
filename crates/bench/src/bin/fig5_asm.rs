//! Figure 5 over assembled programs: the Fig. 5 mechanism comparison
//! (traditional / multi(1) / multi(3) / hardware penalty cycles per miss)
//! where each row is a real program assembled from `asm/*.s` and run to
//! `HALT`. Pass `--program FILE.s` to pick programs explicitly; with no
//! flags it loads the repo-root `asm/` corpus. A program that fails to
//! assemble, or a missing corpus, exits 2 with the diagnostic on stderr.

use smtx_bench::{figures, Experiment};

fn main() {
    let mut exp = Experiment::new("fig5_asm");
    if let Err(e) = figures::fig5_asm(&mut exp) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    exp.finish();
}
