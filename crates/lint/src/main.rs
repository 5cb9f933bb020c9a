//! CLI entry point:
//! `cargo run -p dcn-lint -- [--root PATH] [--deny] [--list-rules] [--env-table]`.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: dcn-lint [--root PATH] [--deny] [--list-rules] [--env-table]\n\
         \n\
         --root PATH    lint the workspace rooted at PATH (default: discover by\n\
         \x20              walking up from the current directory to a workspace Cargo.toml)\n\
         --deny         exit non-zero when any diagnostic survives\n\
         --list-rules   print the rule table and exit\n\
         --env-table    print the README environment-variable table generated from\n\
         \x20              the dcn_obs::env registry, then exit"
    );
    std::process::exit(2)
}

/// Walks up from `start` to the first directory whose Cargo.toml declares
/// a `[workspace]` section.
fn discover_root(start: &std::path::Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut deny = false;
    let mut env_table = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--deny" => deny = true,
            "--env-table" => env_table = true,
            "--list-rules" => {
                for r in dcn_lint::rules::RULES {
                    println!("{:<20} {}", r.id, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            _ => usage(),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match discover_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("dcn-lint: no workspace Cargo.toml found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    if env_table {
        match dcn_lint::env_table_for_root(&root) {
            Ok(table) => {
                print!("{table}");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!(
                    "dcn-lint: {}: no env registry ({e})",
                    root.join(dcn_lint::index::ENV_REGISTRY_REL).display()
                );
                return ExitCode::from(2);
            }
        }
    }
    let report = match dcn_lint::lint_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dcn-lint: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for d in &report.diagnostics {
        println!("{}:{}: error[{}] {}", d.file, d.line, d.rule, d.message);
    }
    println!(
        "dcn-lint: {} files scanned, {} diagnostics, {} allows honored",
        report.files_scanned,
        report.diagnostics.len(),
        report.allows_honored
    );
    if deny && !report.diagnostics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
