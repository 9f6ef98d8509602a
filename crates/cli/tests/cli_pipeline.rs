//! End-to-end tests of the `gar-cli` binary: gen → info → mine → rules
//! (→ serve → query), exercising the real executable via `CARGO_BIN_EXE`.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gar-cli"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gar-cli-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn full_pipeline() {
    let dir = tmp_dir("pipeline");
    let data = dir.join("data");
    let gout = dir.join("large.gout");

    let out = run_ok(bin().args([
        "gen",
        "--out",
        data.to_str().unwrap(),
        "--preset",
        "R30F10",
        "--scale",
        "0.001",
        "--partitions",
        "3",
        "--seed",
        "9",
    ]));
    assert!(out.contains("wrote"), "{out}");
    assert!(data.join("part-0000.gfp").exists());
    assert!(data.join("taxonomy.gtax").exists());
    assert!(data.join("dataset.txt").exists());

    let out = run_ok(bin().args(["info", "--data", data.to_str().unwrap()]));
    assert!(out.contains("total: 3200 transactions"), "{out}");
    assert!(out.contains("taxonomy:"), "{out}");

    let out = run_ok(bin().args([
        "mine",
        "--data",
        data.to_str().unwrap(),
        "--min-support",
        "0.02",
        "--max-pass",
        "2",
        "--algorithm",
        "h-hpgm-pgd",
        "--out",
        gout.to_str().unwrap(),
    ]));
    assert!(out.contains("H-HPGM-PGD"), "{out}");
    assert!(out.contains("large itemsets"), "{out}");
    assert!(gout.exists());

    let out = run_ok(bin().args([
        "rules",
        "--output",
        gout.to_str().unwrap(),
        "--taxonomy",
        data.join("taxonomy.gtax").to_str().unwrap(),
        "--min-confidence",
        "0.6",
        "--top",
        "5",
    ]));
    assert!(out.contains("rules at confidence"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

/// mine → rules --out → serve → query, over a real ephemeral port.
#[test]
fn serve_and_query_round_trip() {
    let dir = tmp_dir("serve");
    let data = dir.join("data");
    let gout = dir.join("large.gout");
    let grul = dir.join("rules.grul");
    let metrics = dir.join("metrics.json");

    run_ok(bin().args([
        "gen",
        "--out",
        data.to_str().unwrap(),
        "--preset",
        "R30F10",
        "--scale",
        "0.001",
        "--partitions",
        "2",
        "--seed",
        "9",
    ]));
    run_ok(bin().args([
        "mine",
        "--data",
        data.to_str().unwrap(),
        "--min-support",
        "0.02",
        "--max-pass",
        "2",
        "--out",
        gout.to_str().unwrap(),
    ]));
    let out = run_ok(bin().args([
        "rules",
        "--output",
        gout.to_str().unwrap(),
        "--taxonomy",
        data.join("taxonomy.gtax").to_str().unwrap(),
        "--min-confidence",
        "0.3",
        "--out",
        grul.to_str().unwrap(),
    ]));
    assert!(out.contains("canonical order"), "{out}");
    assert!(grul.exists());

    // Start the server on an ephemeral port and parse the bound
    // address from its first stdout line.
    let mut server = bin()
        .args([
            "serve",
            "--rules",
            grul.to_str().unwrap(),
            "--port",
            "0",
            "--shards",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server starts");
    let mut first_line = String::new();
    // Kept open until the server exits: it prints once more after writing
    // its metrics, and a closed pipe would turn that into a panic.
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    stdout.read_line(&mut first_line).unwrap();
    assert!(first_line.contains("serving"), "{first_line}");
    let addr = first_line
        .split_whitespace()
        .find(|tok| tok.contains(':'))
        .expect("address in listening line")
        .to_string();

    let out = run_ok(bin().args(["query", "--addr", &addr, "--basket", "1,2,3", "--top", "5"]));
    assert!(
        out.contains("score") || out.contains("no recommendations"),
        "{out}"
    );
    let out = run_ok(bin().args(["query", "--addr", &addr, "--shutdown"]));
    assert!(out.contains("acknowledged shutdown"), "{out}");
    assert!(server.wait().unwrap().success());
    let recorded = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        recorded.contains("serve.queries{shard="),
        "no per-shard query counters in {recorded}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The `rules` subcommand classifies failures like `mine` does:
/// exit 2 for bad flags, 3 for a missing or corrupt artifact.
#[test]
fn rules_exit_codes_match_mine() {
    // Missing a required flag → 2.
    let out = bin().args(["rules"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--output"));

    // Nonexistent mining output → 3 (I/O).
    let out = bin()
        .args([
            "rules",
            "--output",
            "/nonexistent.gout",
            "--min-confidence",
            "0.5",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));

    // Corrupt mining output → 3.
    let dir = tmp_dir("rules-exit");
    let bad = dir.join("bad.gout");
    std::fs::write(&bad, b"not a mining output").unwrap();
    let out = bin()
        .args([
            "rules",
            "--output",
            bad.to_str().unwrap(),
            "--min-confidence",
            "0.5",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));

    // An unparseable flag value is a configuration error → 2 (checked
    // before any artifact I/O, so the corrupt file does not mask it).
    let out = bin()
        .args([
            "rules",
            "--output",
            bad.to_str().unwrap(),
            "--min-confidence",
            "abc",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// `rules` refuses a confidence outside [0, 1] and an interest ratio
/// that is not a finite number of at least 1 as a configuration error
/// (exit 2) naming the flag, on a real mining output, instead of
/// panicking inside rule derivation.
#[test]
fn rules_rejects_out_of_range_confidence_and_interest() {
    let dir = tmp_dir("rules-range");
    let data = dir.join("data");
    let gout = dir.join("large.gout");
    run_ok(bin().args([
        "gen",
        "--out",
        data.to_str().unwrap(),
        "--preset",
        "R30F10",
        "--scale",
        "0.001",
        "--partitions",
        "2",
        "--seed",
        "9",
    ]));
    run_ok(bin().args([
        "mine",
        "--data",
        data.to_str().unwrap(),
        "--min-support",
        "0.02",
        "--max-pass",
        "2",
        "--out",
        gout.to_str().unwrap(),
    ]));
    let taxonomy = data.join("taxonomy.gtax");
    let cases = [
        ("min-confidence", "1.5", "2"),
        ("min-confidence", "NaN", "2"),
        ("min-confidence", "-0.1", "2"),
        ("interest", "0.5", "0.5"),
        ("interest", "NaN", "0.5"),
        ("interest", "inf", "0.5"),
    ];
    for (flag, value, other) in cases {
        let (confidence, interest) = match flag {
            "min-confidence" => (value, other),
            _ => (other, value),
        };
        let out = bin()
            .args([
                "rules",
                "--output",
                gout.to_str().unwrap(),
                "--taxonomy",
                taxonomy.to_str().unwrap(),
                "--min-confidence",
                confidence,
                "--interest",
                interest,
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("--{flag}")),
            "--{flag} {value}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--{flag} {value}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A dataset whose partitions hold item codes its taxonomy does not
/// define is rejected by `mine` (every algorithm family) and by `rules
/// --taxonomy` with exit 2, naming the file, before any mining or rule
/// derivation runs.
#[test]
fn dataset_taxonomy_mismatch_is_a_typed_error_naming_the_file() {
    use gar_storage::FlatPartition;
    use gar_taxonomy::TaxonomyBuilder;
    use gar_types::ItemId;

    let dir = tmp_dir("mismatch");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    for (i, txns) in [[[0, 1], [1, 2], [0, 1]], [[0, 7], [7, 9], [0, 7]]]
        .iter()
        .enumerate()
    {
        let txns = txns.iter().map(|t| t.map(ItemId));
        FlatPartition::from_transactions(txns)
            .write_to(data.join(format!("part-{i:04}.gfp")))
            .unwrap();
    }
    let save_tax = |n| {
        let tax = TaxonomyBuilder::new(n).build().unwrap();
        gar_taxonomy::io::save(&tax, data.join("taxonomy.gtax")).unwrap();
    };
    let mine = |algo: &str, out: &PathBuf| {
        bin()
            .args(["mine", "--data", data.to_str().unwrap()])
            .args(["--min-support", "0.3", "--algo", algo])
            .args(["--out", out.to_str().unwrap()])
            .output()
            .unwrap()
    };
    // With the taxonomy the items belong to, the output mentions item 7.
    save_tax(10);
    let gout = dir.join("large.gout");
    let out = mine("cumulate", &gout);
    assert!(out.status.success(), "{out:?}");

    // A 5-item taxonomy does not define items 7 and 9 of part-0001.
    save_tax(5);
    for algo in ["apriori", "cumulate", "H-HPGM-FGD"] {
        let never = dir.join(format!("{algo}.gout"));
        let out = mine(algo, &never);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{algo}: {stderr}");
        assert!(
            stderr.contains("part-0001.gfp holds item 9"),
            "{algo}: {stderr}"
        );
        assert!(
            stderr.contains("taxonomy.gtax defines only items 0..5"),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{algo}: {stderr}");
        assert!(!never.exists(), "{algo} wrote an output");
    }

    let grul = dir.join("rules.grul");
    let out = bin()
        .args(["rules", "--output", gout.to_str().unwrap()])
        .args(["--min-confidence", "0.5", "--taxonomy"])
        .arg(data.join("taxonomy.gtax"))
        .args(["--out", grul.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("large.gout holds item 7"), "{stderr}");
    assert!(out.stdout.is_empty(), "rules were derived before the check");
    assert!(!grul.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Serving a missing or corrupt rule store fails with exit 3; a bad
/// shard count with exit 2.
#[test]
fn serve_exit_codes() {
    let out = bin()
        .args(["serve", "--rules", "/nonexistent.grul"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));

    let dir = tmp_dir("serve-exit");
    let bad = dir.join("bad.grul");
    std::fs::write(&bad, b"GRULgarbage").unwrap();
    let out = bin()
        .args(["serve", "--rules", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));

    let out = bin()
        .args(["serve", "--rules", bad.to_str().unwrap(), "--shards", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sequential_mining_agrees_with_parallel() {
    let dir = tmp_dir("seq");
    let data = dir.join("data");
    run_ok(bin().args([
        "gen",
        "--out",
        data.to_str().unwrap(),
        "--scale",
        "0.001",
        "--partitions",
        "2",
        "--seed",
        "4",
    ]));
    let count_of = |algorithm: &str| -> String {
        let out = run_ok(bin().args([
            "mine",
            "--data",
            data.to_str().unwrap(),
            "--min-support",
            "0.03",
            "--max-pass",
            "2",
            "--algorithm",
            algorithm,
        ]));
        out.lines()
            .find(|l| l.contains("large itemsets across"))
            .unwrap_or_default()
            .split(':')
            .nth(1)
            .unwrap_or_default()
            .trim()
            .to_string()
    };
    let seq = count_of("cumulate");
    let par = count_of("npgm");
    assert_eq!(
        seq.split(' ').next(),
        par.split(' ').next(),
        "sequential vs parallel counts differ: '{seq}' vs '{par}'"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let out = bin().args(["mine"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data"));

    let out = bin()
        .args(["mine", "--data", "/nonexistent", "--min-support", "0.1"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

/// An option the command does not read — a flag an older build took, a
/// typo — is a configuration error (exit 2) raised before any work is
/// done, not silently accepted.
#[test]
fn unread_options_are_rejected_before_any_work() {
    let dir = tmp_dir("unread");
    let data = dir.join("data");
    let expect = |args: &[&str], needle: &str| {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    };
    let data_arg = data.to_str().unwrap();

    // `--format flat` went with the record-stream format.
    expect(
        &[
            "gen", "--out", data_arg, "--scale", "0.001", "--format", "flat",
        ],
        "unknown option --format",
    );
    assert!(
        !data.exists(),
        "gen wrote a dataset before rejecting its flags"
    );

    run_ok(bin().args([
        "gen",
        "--out",
        data_arg,
        "--scale",
        "0.001",
        "--partitions",
        "2",
    ]));
    let gout = dir.join("large.gout");
    let mine = ["mine", "--data", data_arg, "--min-support", "0.05", "--out"];
    let mut stale = mine.to_vec();
    stale.extend([gout.to_str().unwrap(), "--format", "flat"]);
    expect(&stale, "unknown option --format");
    assert!(!gout.exists(), "mine ran before rejecting its flags");
    // A switch given a value and a flag given none are misreadings too.
    let mut valued = mine.to_vec();
    valued.extend([gout.to_str().unwrap(), "--resume", "yes"]);
    expect(&valued, "--resume takes no value");
    expect(&mine, "--out needs a value");
    // A value whose flag is missing is not dropped: `H-HPGM` would
    // otherwise mine with the default algorithm.
    let mut stray = mine.to_vec();
    stray.extend([gout.to_str().unwrap(), "H-HPGM"]);
    expect(&stray, "unexpected argument 'H-HPGM'");
    assert!(!gout.exists(), "mine ran before rejecting a stray argument");

    // A typo on `serve` fails before the rule store is even opened.
    expect(
        &["serve", "--rules", "/nonexistent.grul", "--shrads", "4"],
        "unknown option --shrads",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The sequential algorithms have no cluster: each of the eight cluster
/// and observability options is a configuration error (exit 2) naming
/// it, raised before the dataset is even opened, and nothing is written.
#[test]
fn cluster_options_are_rejected_for_the_sequential_algorithms() {
    let dir = tmp_dir("seq-cluster-options");
    let ckpt = dir.join("ckpt");
    let metrics = dir.join("m.json");
    let (ckpt_arg, metrics_arg) = (ckpt.to_str().unwrap(), metrics.to_str().unwrap());
    let options: [&[&str]; 8] = [
        &["--memory-mb", "1"],
        &["--faults", "panic@n1p2"],
        &["--deadline-ms", "5"],
        &["--checkpoint-dir", ckpt_arg],
        &["--resume"],
        &["--max-node-failures", "3"],
        &["--metrics-out", metrics_arg],
        &["--trace-out", metrics_arg],
    ];
    for algorithm in ["cumulate", "apriori"] {
        for option in options {
            let mut args = vec![
                "mine",
                "--data",
                "/nonexistent",
                "--min-support",
                "0.1",
                "--algorithm",
                algorithm,
            ];
            args.extend(option);
            let out = bin().args(&args).output().unwrap();
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let want = format!("{} applies to the parallel algorithms only", option[0]);
            assert!(stderr.contains(&want), "{args:?}: {stderr}");
        }
    }
    assert!(
        !ckpt.exists() && !metrics.exists(),
        "mine wrote before rejecting"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A dataset directory written by an older build — record-stream
/// `part-*.txn` files only — is a typed configuration error (exit 2)
/// that says how to fix it, for `mine` and `info` alike.
#[test]
fn txn_only_directory_is_a_typed_error_telling_the_user_to_regenerate() {
    let dir = tmp_dir("txn-only");
    std::fs::write(dir.join("part-0000.txn"), [1u8, 0, 0, 0, 7, 0, 0, 0]).unwrap();
    for args in [
        vec![
            "mine",
            "--data",
            dir.to_str().unwrap(),
            "--min-support",
            "0.1",
        ],
        vec!["info", "--data", dir.to_str().unwrap()],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("part-*.txn"), "{stderr}");
        assert!(stderr.contains("re-run `gar-cli gen`"), "{stderr}");
    }
    // A directory with no partitions at all keeps its own message.
    std::fs::remove_file(dir.join("part-0000.txn")).unwrap();
    let out = bin()
        .args(["info", "--data", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a dataset dir"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_prints_without_args() {
    let out = bin().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// An unknown `--algo` is a typed configuration error: exit code 2 and
/// a message listing every valid algorithm name, FP-Growth included.
#[test]
fn unknown_algo_is_a_typed_config_error_listing_the_names() {
    let out = bin()
        .args([
            "mine",
            "--data",
            "/nonexistent",
            "--min-support",
            "0.1",
            "--algo",
            "frobnicate",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "expected exit code 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown algorithm 'frobnicate'"),
        "stderr should name the bad algorithm: {stderr}"
    );
    for name in ["Cumulate", "NPGM", "H-HPGM-FGD", "FP-Growth"] {
        assert!(
            stderr.contains(name),
            "stderr should list '{name}': {stderr}"
        );
    }
}

/// `--algo fp-growth` runs the pattern-growth miner end to end and
/// reports the same large-itemset count as Cumulate.
#[test]
fn fp_growth_via_algo_alias_agrees_with_cumulate() {
    let dir = tmp_dir("fpg");
    let data = dir.join("data");
    run_ok(bin().args([
        "gen",
        "--out",
        data.to_str().unwrap(),
        "--preset",
        "R30F10",
        "--scale",
        "0.001",
        "--partitions",
        "3",
        "--seed",
        "11",
    ]));
    let count_of = |flag: &str, algorithm: &str| -> String {
        let out = run_ok(bin().args([
            "mine",
            "--data",
            data.to_str().unwrap(),
            "--min-support",
            "0.03",
            flag,
            algorithm,
        ]));
        out.lines()
            .find(|l| l.contains("large itemsets across"))
            .unwrap_or_default()
            .split(':')
            .nth(1)
            .unwrap_or_default()
            .trim()
            .to_string()
    };
    let fpg = count_of("--algo", "fp-growth");
    let seq = count_of("--algorithm", "cumulate");
    assert_eq!(
        fpg.split(' ').next(),
        seq.split(' ').next(),
        "fp-growth vs cumulate counts differ: '{fpg}' vs '{seq}'"
    );
    std::fs::remove_dir_all(&dir).ok();
}
