//! End-to-end run of one workload, on the system allocator.

fn main() {
    std::process::exit(perfbench::main_with(None));
}
