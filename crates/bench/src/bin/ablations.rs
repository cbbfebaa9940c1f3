//! Extra ablations (see ARCHITECTURE.md): topology choice and message size.
fn main() {
    atom_bench::print_ablation_topology(1024);
    println!();
    if atom_bench::full_mode() {
        atom_bench::print_ablation_msgsize(8, 256, &[32, 64, 160, 320]);
    } else {
        atom_bench::print_ablation_msgsize(4, 64, &[32, 64, 160]);
    }
}
