//! Command-line entry point; see the library docs.

fn main() {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let outcome = perfbench::run(&args, &root);
    print!("{}", outcome.render(args.trace));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
