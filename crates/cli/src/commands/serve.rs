//! `gar-cli serve` — load a `GRUL` rule store and answer basket queries
//! over TCP until a shutdown frame arrives.
//!
//! `--watch-store` turns on zero-downtime refresh: a poller thread
//! watches the rule file's mtime and hot-swaps the store into a new
//! epoch whenever it changes. A corrupt or torn write is rejected by
//! the store checksum and the old epoch keeps answering.

use crate::args::Args;
use gar_cluster::FaultPlan;
use gar_obs::Obs;
use gar_serve::{serve, ReloadHandle, RuleStore, ServerConfig};
use gar_types::Result;
use std::io::Write;
use std::time::{Duration, SystemTime};

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<()> {
    let rules_path = args.require("rules")?;
    let port: u16 = args.get_or("port", 0)?;
    let shards: usize = args.get_or("shards", 1)?;
    let deadline_ms: u64 = args.get_or("deadline-ms", 5000)?;
    let queue_depth: usize = args.get_or("queue-depth", 64)?;
    if shards == 0 {
        return Err(gar_types::Error::InvalidConfig(
            "--shards must be at least 1".into(),
        ));
    }
    if queue_depth == 0 {
        return Err(gar_types::Error::InvalidConfig(
            "--queue-depth must be at least 1".into(),
        ));
    }
    let faults = match args.get("faults") {
        Some(spec) => FaultPlan::parse(spec)?,
        None => FaultPlan::default(),
    };
    let watch_store = args.has_switch("watch-store");

    let metrics_out = args.get("metrics-out");
    let trace_out = args.get("trace-out");
    args.finish()?;
    let obs = if metrics_out.is_some() || trace_out.is_some() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };

    let store = RuleStore::load(rules_path)?;
    let num_rules = store.rules.len();
    let cfg = ServerConfig {
        shards,
        deadline: Duration::from_millis(deadline_ms),
        queue_depth,
        faults,
    };
    let server = serve(&format!("127.0.0.1:{port}"), store, cfg, obs.clone())?;
    // Scripts parse this line for the bound address, so flush it
    // before blocking.
    println!(
        "serving {num_rules} rules on {} ({shards} shards)",
        server.local_addr()
    );
    std::io::stdout()
        .flush()
        .map_err(|e| gar_types::Error::io("flushing stdout", e))?;

    let watcher = watch_store.then(|| {
        let handle = server.reload_handle();
        let path = rules_path.to_string();
        std::thread::spawn(move || watch_store_loop(&handle, &path))
    });

    server.wait()?;
    if let Some(watcher) = watcher {
        // The poller notices `is_running()` going false within one tick.
        drop(watcher.join());
    }

    if let Some(path) = metrics_out {
        std::fs::write(path, obs.metrics().to_json())
            .map_err(|e| gar_types::Error::io(format!("writing metrics to {path}"), e))?;
        println!("wrote {path}");
    }
    if let Some(path) = trace_out {
        std::fs::write(path, obs.chrome_trace_json())
            .map_err(|e| gar_types::Error::io(format!("writing trace to {path}"), e))?;
        println!("wrote {path} (load in chrome://tracing or ui.perfetto.dev)");
    }
    Ok(())
}

/// Polls the rule file's mtime and hot-swaps it into a new epoch when it
/// changes. A failed swap (torn write caught by the store checksum, or
/// the file briefly missing mid-rewrite) is reported and retried on the
/// next change — the serving epoch is untouched either way.
fn watch_store_loop(handle: &ReloadHandle, path: &str) {
    let mut last_seen = mtime_of(path);
    while handle.is_running() {
        #[expect(
            clippy::disallowed_methods,
            reason = "the rule file's mtime poll interval"
        )]
        std::thread::sleep(Duration::from_millis(200));
        let now = mtime_of(path);
        if now == last_seen || now.is_none() {
            continue;
        }
        last_seen = now;
        match handle.reload(path) {
            Ok(epoch) => {
                println!("reloaded {path} into epoch {epoch}");
                drop(std::io::stdout().flush());
            }
            Err(e) => {
                eprintln!("reload of {path} rejected (old epoch keeps serving): {e}");
            }
        }
    }
}

/// The file's mtime, or `None` while it is missing (mid-rewrite).
fn mtime_of(path: &str) -> Option<SystemTime> {
    std::fs::metadata(path).ok().and_then(|m| m.modified().ok())
}
