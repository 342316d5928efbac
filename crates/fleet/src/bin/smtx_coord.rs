//! `smtx-coord` — the fleet coordinator daemon.
//!
//! Fronts N `smtxd` nodes behind the single-node HTTP API: sharded
//! placement, work stealing, a fleet-wide result store, and redispatch on
//! node death. Blocks until a client posts `/v1/shutdown` (pass
//! `{"fleet": true}` to shut the nodes down too). See DESIGN.md §15.

use smtx_fleet::{CoordConfig, Placement};

const USAGE: &str = "usage: smtx-coord --node HOST:PORT [--node HOST:PORT ...] \
 [--addr HOST] [--port N] [--placement shard|round-robin] \
 [--dispatchers N] [--steal-depth N] [--queue-cap N] [--results-cap N] \
 [--deadline-ms N] [--node-timeout-ms N] [--poll-ms N]";

struct Opts {
    addr: String,
    port: u16,
    config: CoordConfig,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts =
        Opts { addr: "127.0.0.1".to_string(), port: 7719, config: CoordConfig::default() };
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
        match arg.as_str() {
            "--node" => opts.config.nodes.push(value_for("--node")?),
            "--addr" => opts.addr = value_for("--addr")?,
            "--port" => opts.port = num("--port", &value_for("--port")?)?,
            "--placement" => {
                let v = value_for("--placement")?;
                opts.config.placement = Placement::from_name(&v)
                    .ok_or_else(|| format!("--placement: unknown policy `{v}`"))?;
            }
            "--dispatchers" => {
                opts.config.dispatchers = num("--dispatchers", &value_for("--dispatchers")?)?;
            }
            "--steal-depth" => {
                opts.config.steal_depth = num("--steal-depth", &value_for("--steal-depth")?)?;
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
            "--node-timeout-ms" => {
                opts.config.node_timeout_ms =
                    num("--node-timeout-ms", &value_for("--node-timeout-ms")?)?;
            }
            "--poll-ms" => opts.config.poll_ms = num("--poll-ms", &value_for("--poll-ms")?)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.config.nodes.is_empty() {
        return Err("at least one --node is required".to_string());
    }
    if opts.config.dispatchers == 0 {
        return Err("--dispatchers must be at least 1".to_string());
    }
    if opts.config.queue_cap == 0 {
        return Err("--queue-cap must be at least 1".to_string());
    }
    if opts.config.steal_depth == 0 {
        return Err("--steal-depth must be at least 1".to_string());
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
    let bind = format!("{}:{}", opts.addr, opts.port);
    let nodes = opts.config.nodes.len();
    let handle = match smtx_fleet::start(&bind, opts.config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start coordinator on {bind}: {e}");
            std::process::exit(1);
        }
    };
    // The fleet scripts and human operators scrape this line for the port.
    println!("smtx-coord listening on {} ({nodes} nodes)", handle.addr());
    handle.join();
    println!("smtx-coord drained and stopped");
}
