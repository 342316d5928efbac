//! `smtxd` — the simulation service daemon.
//!
//! Boots the worker pool and the HTTP listener, then blocks until a client
//! posts `/v1/shutdown` (in-flight jobs drain first). See DESIGN.md §10.

use smtx_serve::{server, ServiceConfig};

const USAGE: &str = "usage: smtxd [--addr HOST] [--port N] [--workers N] [--runner-jobs N] \
 [--queue-cap N] [--results-cap N] [--deadline-ms N] [--skip N] \
 [--check on|off] [--asm DIR]";

struct Opts {
    addr: String,
    port: u16,
    asm_dirs: Vec<std::path::PathBuf>,
    config: ServiceConfig,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        addr: "127.0.0.1".to_string(),
        port: 7717,
        asm_dirs: Vec::new(),
        config: ServiceConfig::default(),
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value_for =
            |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        }
        fn on_off(flag: &str, v: &str) -> Result<bool, String> {
            match v {
                "on" => Ok(true),
                "off" => Ok(false),
                other => Err(format!("{flag}: expected `on` or `off`, got `{other}`")),
            }
        }
        match arg.as_str() {
            "--addr" => opts.addr = value_for("--addr")?,
            "--port" => opts.port = num("--port", &value_for("--port")?)?,
            "--workers" => opts.config.workers = num("--workers", &value_for("--workers")?)?,
            "--runner-jobs" => {
                opts.config.runner_jobs = num("--runner-jobs", &value_for("--runner-jobs")?)?;
            }
            "--queue-cap" => {
                opts.config.queue_cap = num("--queue-cap", &value_for("--queue-cap")?)?;
            }
            "--results-cap" => {
                opts.config.results_cap = num("--results-cap", &value_for("--results-cap")?)?;
            }
            "--deadline-ms" => {
                opts.config.default_deadline_ms =
                    num("--deadline-ms", &value_for("--deadline-ms")?)?;
            }
            "--skip" => opts.config.skip = num("--skip", &value_for("--skip")?)?,
            "--check" => {
                opts.config.check = on_off("--check", &value_for("--check")?)?;
            }
            "--asm" => opts.asm_dirs.push(value_for("--asm")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.config.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    if opts.config.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".to_string());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    // Register assembled-program workloads before the listener comes up,
    // so every job spec naming an `asm:*` kernel (and `fig5_asm`) resolves
    // from the first request on.
    for dir in &opts.asm_dirs {
        match smtx_workloads::load_asm_dir(dir) {
            Ok(kernels) => {
                let names: Vec<&str> = kernels.iter().map(|k| k.name()).collect();
                println!("smtxd loaded {}: {}", dir.display(), names.join(", "));
            }
            Err(e) => {
                eprintln!("error: --asm {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    let bind = format!("{}:{}", opts.addr, opts.port);
    let handle = match server::start(&bind, opts.config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {bind}: {e}");
            std::process::exit(1);
        }
    };
    // The smoke script and human operators scrape this line for the port.
    println!("smtxd listening on {}", handle.addr());
    handle.join();
    println!("smtxd drained and stopped");
}
