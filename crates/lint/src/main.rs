//! `fdmax-lint` — lint FDMAX configuration files before touching silicon
//! (or the cycle-accurate simulator).
//!
//! ```text
//! fdmax-lint [--format text|json|sarif] [--deny-warnings] <config.toml>...
//! fdmax-lint --explain FDX0xx
//! ```
//!
//! Exit status: 0 when every file is free of Error-level diagnostics
//! (and, under `--deny-warnings`, free of warnings too), 1 when any
//! file has them, 2 on unreadable or unparseable input.

use fdmax_lint::configfile;
use fdmax_lint::render::{render_json, render_sarif, render_text};
use fdmax_lint::{DiagCode, LintReport, Severity};
use std::process::ExitCode;

const USAGE: &str = "usage: fdmax-lint [options] <config.toml>...
       fdmax-lint --explain FDX0xx

Lints FDMAX accelerator configuration files with the elaboration-time
static analyzer (diagnostic codes FDX001..FDX022). Files that size the
solve service (queue_capacity / max_job_iterations /
deadline_iterations / checkpoint_every / journal_dir) get the
service-overcommit (FDX011) and durability (FDX013) checks too; files
that size the multi-tenant front end (workers /
tenant_in_flight_quotas) get the quota-overcommit (FDX020) check;
files that describe a job
class (tolerance / precision / pde / job_iterations / parallel_threads
/ scale / tile_depth) get the solve-plan analysis (FDX015..FDX019) and
the tiling-geometry check (FDX022); when several
files are linted together, services sharing a journal_dir are reported
once under a combined `<fleet>` origin.

options:
  --format <fmt>   output format: text (default), json (one JSON object
                   per file, stable schema for CI), sarif (one SARIF
                   2.1.0 log for the whole run)
  --json           alias of --format json
  --deny-warnings  treat Warn-level diagnostics as failures
  --explain <code> print the documentation of one diagnostic code
  --help           this message";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn explain(code_str: &str) -> ExitCode {
    let Some(code) = DiagCode::parse(code_str) else {
        eprintln!(
            "fdmax-lint: unknown code `{code_str}` (valid: FDX001..FDX{:03})",
            fdmax::lint::ALL_CODES.len()
        );
        return ExitCode::from(2);
    };
    println!("{}[{code}]: {}", code.severity(), code.title());
    println!();
    for line in code.explanation().lines() {
        println!("  {}", line.trim());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut deny_warnings = false;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        eprintln!(
                            "fdmax-lint: --format expects text, json or sarif, got `{}`",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--explain" => {
                let Some(code) = args.next() else {
                    eprintln!("fdmax-lint: --explain expects a diagnostic code\n{USAGE}");
                    return ExitCode::from(2);
                };
                return explain(&code);
            }
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("fdmax-lint: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("fdmax-lint: no input files\n{USAGE}");
        return ExitCode::from(2);
    }

    let fail_at = if deny_warnings {
        Severity::Warn
    } else {
        Severity::Error
    };
    let mut failed = false;
    let mut broken = false;
    let mut fleet: Vec<(String, fdmax_lint::ServiceSpec)> = Vec::new();
    let mut rendered: Vec<(String, LintReport)> = Vec::new();
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fdmax-lint: {file}: {e}");
                broken = true;
                continue;
            }
        };
        let parsed = match configfile::parse_full(&source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("fdmax-lint: {file}: {e}");
                broken = true;
                continue;
            }
        };
        let report = fdmax_lint::lint_full(
            &parsed.target,
            parsed.service.as_ref(),
            parsed.frontend.as_ref(),
            parsed.plan.as_ref(),
        );
        if report.worst().is_some_and(|w| w >= fail_at) {
            failed = true;
        }
        match format {
            Format::Json => println!("{}", render_json(file, &report)),
            Format::Text => print!("{}", render_text(file, &report)),
            Format::Sarif => rendered.push((file.clone(), report)),
        }
        if let Some(spec) = parsed.service {
            fleet.push((file.clone(), spec));
        }
    }
    // Cross-file check: services sharing a journal_dir corrupt each
    // other's recovery (FDX013 Error). Per-file diagnostics were
    // already printed above, so only the collisions are reported here.
    let specs: Vec<_> = fleet.iter().map(|(_, s)| s.clone()).collect();
    let collisions = fdmax_lint::lint_journal_collisions(&specs);
    if !collisions.is_empty() {
        let origin = fleet
            .iter()
            .filter(|(_, s)| s.journal_dir.is_some())
            .map(|(f, _)| f.as_str())
            .collect::<Vec<_>>()
            .join(" + ");
        let origin = format!("<fleet: {origin}>");
        if collisions.worst().is_some_and(|w| w >= fail_at) {
            failed = true;
        }
        match format {
            Format::Json => println!("{}", render_json(&origin, &collisions)),
            Format::Text => print!("{}", render_text(&origin, &collisions)),
            Format::Sarif => rendered.push((origin, collisions)),
        }
    }
    if format == Format::Sarif {
        println!("{}", render_sarif(&rendered));
    }
    if broken {
        ExitCode::from(2)
    } else if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
