//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match finepack_perfbench::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <fig9-suite|allreduce-ladder|faulty-audit> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = finepack_perfbench::run(&args);
    eprint!("{}", outcome.stderr);
    let mut stdout = std::io::stdout().lock();
    if stdout
        .write_all(outcome.stdout.as_bytes())
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
