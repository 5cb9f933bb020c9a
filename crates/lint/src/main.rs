//! CLI entry point: `cargo run -p dcn-lint -- [--root PATH] [--deny]`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // The workspace dcn-lint was built in, unless `--root` names another.
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut deny = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--root" if let Some(path) = args.next() => root = PathBuf::from(path),
            _ => {
                eprintln!("usage: dcn-lint [--root PATH] [--deny]");
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
