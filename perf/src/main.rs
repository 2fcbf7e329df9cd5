fn main() {
    std::process::exit(rpb_perf::cli::main(std::env::args().skip(1).collect()));
}
