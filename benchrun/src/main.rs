//! `benchrun` — see the package's `README.md`.

fn main() -> std::process::ExitCode {
    benchrun::cli::main(std::env::args().skip(1).collect())
}
