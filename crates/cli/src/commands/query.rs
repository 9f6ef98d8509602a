//! `gar-cli query` — send one basket to a running `gar-cli serve`
//! instance and print the recommended consequents. A degraded answer
//! says how many shards were missing; a shed query is an
//! [`Error::Overloaded`].

use crate::args::Args;
use gar_cluster::RetryPolicy;
use gar_serve::{Client, QueryReply};
use gar_types::{Error, ItemId, Result};
use std::time::Duration;

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<()> {
    let addr = args.require("addr")?;
    let deadline = Duration::from_millis(args.get_or("deadline-ms", 5000)?);
    let retry = RetryPolicy::default();

    if args.has_switch("shutdown") {
        args.finish()?;
        let client = Client::connect(addr, Some(deadline), &retry)?;
        client.shutdown()?;
        println!("server at {addr} acknowledged shutdown");
        return Ok(());
    }

    if let Some(path) = args.get("reload") {
        args.finish()?;
        let mut client = Client::connect(addr, Some(deadline), &retry)?;
        let epoch = client.reload(path)?;
        println!("server at {addr} reloaded {path} into epoch {epoch}");
        return Ok(());
    }

    let basket = parse_basket(args.require("basket")?)?;
    let top_k: u32 = args.get_or("top", 5)?;
    args.finish()?;
    let mut client = Client::connect(addr, Some(deadline), &retry)?;
    let (recs, shards_missing) = match client.query_v2(&basket, top_k, 0)? {
        QueryReply::Results {
            shards_missing,
            recs,
            ..
        } => (recs, shards_missing),
        QueryReply::Overloaded { retry_after_ms } => {
            return Err(Error::Overloaded { retry_after_ms })
        }
    };
    if recs.is_empty() {
        println!("no recommendations");
    }
    for rec in recs {
        println!(
            "  {}  (score {:.4}, conf {:.1}%, sup {})",
            rec.consequent,
            rec.score,
            rec.confidence * 100.0,
            rec.support_count
        );
    }
    if shards_missing > 0 {
        println!("degraded: {shards_missing} shard(s) missing");
    }
    Ok(())
}

/// Parses `--basket "3,7,12"` into item ids.
fn parse_basket(spec: &str) -> Result<Vec<ItemId>> {
    let mut items = Vec::new();
    for tok in spec.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            continue;
        }
        let id: u32 = tok
            .parse()
            .map_err(|_| Error::InvalidConfig(format!("bad basket item '{tok}'")))?;
        items.push(ItemId(id));
    }
    if items.is_empty() {
        return Err(Error::InvalidConfig(
            "--basket must name at least one item id".into(),
        ));
    }
    Ok(items)
}
