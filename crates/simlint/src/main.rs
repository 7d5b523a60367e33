//! The `simlint` CLI.
//!
//! ```text
//! simlint --workspace [--root PATH]   lint the whole workspace (default root: cwd)
//! simlint --explain RULE              print a rule's full rationale
//! simlint --list                      print the rule table
//! simlint --file PATH --as RELPATH    lint one file as if at RELPATH (fixture/debug aid)
//! ```
//!
//! Exit status: 0 when clean, 1 on any finding, 2 on usage or I/O errors.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{lint_source, lint_workspace, report, rule_info, FileContext, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("simlint: {message}");
            ExitCode::from(2)
        }
    }
}

/// Executes one CLI invocation; `Ok(false)` means findings were printed.
fn run(args: &[String]) -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut workspace = false;
    let mut explain: Option<String> = None;
    let mut list = false;
    let mut file: Option<PathBuf> = None;
    let mut rel_as: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workspace" => workspace = true,
            "--list" => list = true,
            "--root" => {
                root = Some(PathBuf::from(take_value(args, &mut i, "--root")?));
            }
            "--explain" => {
                explain = Some(take_value(args, &mut i, "--explain")?);
            }
            "--file" => {
                file = Some(PathBuf::from(take_value(args, &mut i, "--file")?));
            }
            "--as" => {
                rel_as = Some(take_value(args, &mut i, "--as")?);
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
        i += 1;
    }

    if let Some(rule) = explain {
        let info = rule_info(&rule)
            .ok_or_else(|| format!("unknown rule `{rule}` — try --list for the rule table"))?;
        println!("{}", info.explain);
        return Ok(true);
    }
    if list {
        for rule in RULES {
            println!("{}  {}", rule.id, rule.summary);
        }
        return Ok(true);
    }
    if let Some(path) = file {
        let rel = rel_as.unwrap_or_else(|| path.to_string_lossy().into_owned());
        let source = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let ctx = FileContext::classify(&rel);
        let mut findings = lint_source(&ctx, &source);
        report::sort_findings(&mut findings);
        print!("{}", report::render(&findings));
        return Ok(findings.is_empty());
    }
    if workspace {
        let root = match root {
            Some(root) => root,
            None => env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?,
        };
        let findings =
            lint_workspace(&root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
        print!("{}", report::render(&findings));
        return Ok(findings.is_empty());
    }
    Err(format!("nothing to do\n{}", usage()))
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn usage() -> String {
    let mut out = String::from(
        "usage:\n  simlint --workspace [--root PATH]   lint every .rs file in the workspace\n  \
         simlint --explain RULE              print a rule's full rationale\n  \
         simlint --list                      print the rule table\n  \
         simlint --file PATH [--as RELPATH]  lint one file under a claimed workspace path\n\nrules:\n",
    );
    for rule in RULES {
        out.push_str(&format!("  {}  {}\n", rule.id, rule.summary));
    }
    out
}
