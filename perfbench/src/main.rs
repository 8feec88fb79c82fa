//! `perfbench` — end-to-end and per-layer benchmark of the BQSched
//! reproduction. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <bqsched-tpcds|fifo-wire-loopback> --seed <n>
//!           --seconds <s> --trace <0|1> [--serve-bin <bq-serve>] [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! Untraced runs report the end-to-end metrics, traced runs the per-layer
//! ones. Host conditions, sample counts and (traced) spans are written
//! beside it under `--out`.

use std::path::PathBuf;
use std::process::ExitCode;

use bq_perfbench::workloads::{self, artifact_path, Kind, Options, Run};

fn parse_args() -> Result<Options, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin,
        out_dir,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line. A metric that is not a finite number makes the run
/// incorrect rather than producing invalid JSON.
fn result_line(run: &mut Run) -> String {
    let mut metrics = Vec::new();
    for &(name, value, unit) in &run.metrics {
        let value = if value.is_finite() {
            value
        } else {
            run.failed += 1;
            run.problems.push(format!("{name} is not finite"));
            0.0
        };
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(",")
    )
}

fn write_artifacts(opts: &Options, run: &Run, line: &str) -> std::io::Result<()> {
    let mut notes: Vec<String> = run
        .notes
        .iter()
        .map(|(k, v)| {
            let value = if v.starts_with(['{', '[']) {
                v.clone()
            } else {
                json_string(v)
            };
            format!("{}:{value}", json_string(k))
        })
        .collect();
    let problems: Vec<String> = run.problems.iter().map(|p| json_string(p)).collect();
    notes.push(format!("\"problems\":[{}]", problems.join(",")));
    notes.push(format!(
        "\"available_parallelism\":{}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    notes.push(format!("\"result\":{line}"));
    std::fs::write(
        artifact_path(opts, "json"),
        format!("{{{}}}\n", notes.join(",")),
    )?;
    if !run.sections.is_empty() {
        let mut out = String::new();
        for (section, spans) in &run.sections {
            let mut child = vec![0.0; spans.len()];
            for span in spans {
                if let Some(parent) = span.parent {
                    child[parent] += span.seconds();
                }
            }
            for (i, span) in spans.iter().enumerate() {
                let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
                out.push_str(&format!(
                    "{{\"section\":\"{section}\",\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"episode\":{},\"self_s\":{}}}\n",
                    span.name,
                    span.start,
                    span.end,
                    span.episode,
                    span.seconds() - child[i]
                ));
            }
        }
        std::fs::write(artifact_path(opts, "spans.jsonl"), out)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(problem) => {
            eprintln!("perfbench: {problem}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: creating {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = if opts.trace {
        workloads::traced(&opts)
    } else {
        workloads::untraced(&opts)
    };
    let mut run = match outcome {
        Ok(run) => run,
        Err(problem) => {
            eprintln!("perfbench: {problem}");
            return ExitCode::FAILURE;
        }
    };
    let line = result_line(&mut run);
    for problem in &run.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    for (key, value) in run.notes.iter().filter(|(_, v)| v.len() < 200) {
        eprintln!("perfbench: {key} = {value}");
    }
    if let Err(e) = write_artifacts(&opts, &run, &line) {
        eprintln!("perfbench: writing artifacts: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
