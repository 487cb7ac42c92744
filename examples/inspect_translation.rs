//! Look inside the translator: detection, variable classification, the
//! linearization metadata of Figure 6, and the generated kernels at each
//! optimization level (disassembled as loop nests), for the paper's
//! k-means program.
//!
//! ```sh
//! cargo run --release --example inspect_translation
//! ```

use chapel_freeride::cfr_core::{compile_loop, Instr, OptLevel};
use chapel_freeride::{detect, parse, programs, Detected};
use chapel_sema::analyze;
use linearize::{AccessPath, LinearMeta};

fn main() {
    let src = programs::kmeans(100, 4, 3);
    println!("=== Chapel source (Figure 3 as a reduction loop) ===\n{src}");

    let program = parse(&src).expect("parse");
    let analysis = analyze(&program).expect("sema");

    // Figure 6: the layout information collected for the dataset.
    let shape = analysis.decls.shape_of_global("data").expect("layout");
    println!("=== dataset layout ===");
    println!("shape: {}", shape.describe());
    println!("levels: {}", shape.nesting_levels());
    let meta = LinearMeta::new(&shape);
    let pm = meta.for_path(&AccessPath::fields(&[0])).expect("path");
    println!("unitSize[] = {:?}", pm.unit_size);
    println!("unitOffset[][] = {:?}", pm.unit_offset);
    println!("position[][] = {:?}\n", pm.position);

    // Detection: dataset / state / outputs.
    let detection = detect(&program, &analysis);
    println!("=== detection ===");
    for (idx, d) in &detection.detected {
        if let Detected::Loop(l) = d {
            println!(
                "stmt {idx}: reduction loop over {}..{} — dataset {:?}, state {:?}, outputs {:?}",
                l.lo, l.hi, l.dataset, l.state, l.outputs
            );
        }
    }
    for r in &detection.rejections {
        println!(
            "stmt {}: stays on the interpreter ({})",
            r.stmt_index, r.reason
        );
    }

    // The kernels at each optimization level.
    let red = detection
        .detected
        .values()
        .find_map(|d| match d {
            Detected::Loop(l) => Some(l.clone()),
            _ => None,
        })
        .expect("kmeans loop");
    for opt in [OptLevel::Generated, OptLevel::Opt1, OptLevel::Opt2] {
        let compiled = compile_loop(&program, &analysis, &red, opt).expect("compile");
        let k = &compiled.kernel;
        // Counts walk the whole loop nest, not just the top-level block.
        println!(
            "\n=== {opt:?} kernel: {} instructions in {} loops ===",
            k.count_matching(|_| true),
            k.count_matching(|i| matches!(i, Instr::For { .. }))
        );
        println!(
            "  per-access computeIndex calls (LoadData/LoadStateFlat): {}",
            k.count_matching(|i| matches!(i, Instr::LoadData { .. } | Instr::LoadStateFlat { .. }))
        );
        println!(
            "  hoisted bases + strided loads: {}",
            k.count_matching(|i| matches!(
                i,
                Instr::DataBase { .. }
                    | Instr::StateBase { .. }
                    | Instr::LoadDataAt { .. }
                    | Instr::LoadStateAt { .. }
            ))
        );
        println!(
            "  nested Chapel-structure walks: {}",
            k.count_matching(
                |i| matches!(i, Instr::LoadStateNested { steps, .. } if !steps.is_empty())
            )
        );
        if opt == OptLevel::Opt2 {
            println!("\n--- opt-2 disassembly ---\n{}", k.disassemble());
        }
    }
}
