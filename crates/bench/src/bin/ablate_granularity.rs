//! Section 4.2 ablations: objects larger than a page (one invocation vs
//! many faults) and false sharing (private objects vs a packed page).

use amber_bench::ablate;

fn main() {
    let mut large = Vec::new();
    for kb in [4usize, 16, 64, 256] {
        large.push(ablate::large_object_amber(kb * 1024));
        large.push(ablate::large_object_dsm(kb * 1024, 1024));
    }
    amber_bench::print_table(
        "Ablation 4.2a: remote access to a record larger than a page",
        &["scheme", "time", "msgs", "bytes", "spread"],
        &large.iter().map(|r| r.cells()).collect::<Vec<_>>(),
    );

    let mut sharing = Vec::new();
    for writers in [2usize, 4, 8] {
        sharing.push(ablate::false_sharing_amber(writers, 20));
        sharing.push(ablate::false_sharing_dsm(writers, 20));
    }
    amber_bench::print_table(
        "Ablation 4.2b: false sharing (20 writes per writer)",
        &["scheme", "time", "msgs", "bytes", "spread"],
        &sharing.iter().map(|r| r.cells()).collect::<Vec<_>>(),
    );
    amber_bench::print_digests(
        large
            .iter()
            .chain(&sharing)
            .map(|r| (r.label.as_str(), r.digest)),
    );
}
