//! `smtx-perfbench` — see the library documentation.

use smtx_perfbench::command;
use smtx_perfbench::spec::Spec;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--rep") {
        if let Err(e) = command::child(&argv[1..]) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        return;
    }
    match command::parse(argv, &Spec::load()) {
        // A run whose outputs do not check still prints its result line,
        // then fails.
        Ok(opts) => {
            if !command::run(&opts) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", command::USAGE);
            std::process::exit(2);
        }
    }
}
