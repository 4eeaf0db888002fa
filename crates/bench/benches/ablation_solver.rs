//! §III-B ablation — the strided-overlap constraint solver.
//!
//! The paper solves its overlap constraints with GLPK (ILP). This target
//! times the production Diophantine solve against the branch-and-bound
//! ILP mirroring the paper's formulation (`sword_solver::ilp`, the
//! reference the solver proptests compare verdicts against) on the
//! paper's Figure 4 system and its satisfiable sibling.

use sword_bench::{fmt_secs, Table};
use sword_metrics::Stopwatch;
use sword_solver::{overlap_ilp, strided_overlap, IlpStatus, StridedInterval};

fn main() {
    // Microbenchmark on the paper's Figure 4 system (unsatisfiable) and
    // its satisfiable sibling.
    let t0 = StridedInterval::new(10, 8, 4, 4);
    let t1 = StridedInterval::new(14, 8, 4, 4);
    let t2 = StridedInterval::new(13, 8, 4, 4);
    const REPS: usize = 10_000;
    let mut micro =
        Table::new("Figure 4 constraint, 10k solves", &["solver", "unsat case", "sat case"]);
    let time = |f: &dyn Fn() -> bool| {
        let sw = Stopwatch::start();
        let mut x = false;
        for _ in 0..REPS {
            x ^= std::hint::black_box(f());
        }
        std::hint::black_box(x);
        sw.secs()
    };
    let dio_unsat = time(&|| strided_overlap(&t0, &t1));
    let dio_sat = time(&|| strided_overlap(&t0, &t2));
    let ilp_unsat = time(&|| overlap_ilp(&t0, &t1).solve() == IlpStatus::Feasible);
    let ilp_sat = time(&|| overlap_ilp(&t0, &t2).solve() == IlpStatus::Feasible);
    micro.row(&["diophantine".into(), fmt_secs(dio_unsat), fmt_secs(dio_sat)]);
    micro.row(&["branch&bound ILP".into(), fmt_secs(ilp_unsat), fmt_secs(ilp_sat)]);
    println!("{}", micro.render());
    println!(
        "diophantine speedup: {:.0}x (unsat), {:.0}x (sat)",
        ilp_unsat / dio_unsat.max(1e-12),
        ilp_sat / dio_sat.max(1e-12)
    );
}
