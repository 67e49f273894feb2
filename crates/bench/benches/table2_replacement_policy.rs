//! Table II: block replacement decisions in the Bi-Modal cache.
//!
//! Exercises a real bi-modal set through every (set state vs global
//! state) x (predicted size) combination and prints what actually
//! happened, regenerating the paper's decision matrix from behaviour.

use bimodal_core::{BlockSize, CacheGeometry, SetArena, SetState};

fn scenario(set_state: SetState, global: SetState, predicted: BlockSize) -> String {
    let geometry = CacheGeometry::paper_default(1 << 20);
    let mut sets = SetArena::new(&geometry);
    let set = 0;
    // Drive the set into `set_state` by inserting with a matching target.
    let mut tag = 1000u64;
    while sets.state(set) != set_state {
        let size = if sets.state(set).big > set_state.big {
            BlockSize::Small
        } else {
            BlockSize::Big
        };
        sets.insert(set, size, tag, 0, set_state, &mut |_| 0);
        tag += 1;
    }
    // Fill every way so the insertion must replace something.
    for k in 0..40u64 {
        let st = sets.state(set);
        sets.insert(set, BlockSize::Big, 2000 + k, 0, st, &mut |_| 0);
        if st.small > 0 {
            sets.insert(set, BlockSize::Small, 3000 + k, 1, st, &mut |_| 0);
        }
        if sets.occupancy(set) >= usize::from(st.big) + usize::from(st.small) {
            break;
        }
    }

    let before = sets.state(set);
    let out = sets.insert(set, predicted, 99_999, 2, global, &mut |_| 0);
    let evicted_big = sets
        .evicted()
        .iter()
        .filter(|v| v.size == BlockSize::Big)
        .count();
    let evicted_small = sets
        .evicted()
        .iter()
        .filter(|v| v.size == BlockSize::Small)
        .count();
    let landed = match out.way.size {
        BlockSize::Big => "big",
        BlockSize::Small => "small",
    };
    format!(
        "state {before} -> {}; evicted {evicted_big} big + {evicted_small} small; filled {landed}",
        sets.state(set)
    )
}

fn main() {
    bimodal_bench::banner(
        "Table II — block replacement in the Bi-Modal cache",
        "insertions align each set's (X, Y) state toward the global target",
    );
    let s40 = SetState { big: 4, small: 0 };
    let s38 = SetState { big: 3, small: 8 };

    println!("case: X_s = X_glob (both (3,8))");
    println!(
        "  predicted big   -> {}",
        scenario(s38, s38, BlockSize::Big)
    );
    println!(
        "  predicted small -> {}",
        scenario(s38, s38, BlockSize::Small)
    );
    println!();
    println!("case: X_s < X_glob (set (3,8), global (4,0))");
    println!(
        "  predicted big   -> {}",
        scenario(s38, s40, BlockSize::Big)
    );
    println!(
        "  predicted small -> {}",
        scenario(s38, s40, BlockSize::Small)
    );
    println!();
    println!("case: X_s > X_glob (set (4,0), global (3,8))");
    println!(
        "  predicted big   -> {}",
        scenario(s40, s38, BlockSize::Big)
    );
    println!(
        "  predicted small -> {}",
        scenario(s40, s38, BlockSize::Small)
    );
    println!();
    println!("paper's rules: same state -> replace same kind; X_s < X_glob &");
    println!("big -> evict 8 smalls; X_s > X_glob & small -> evict a big.");
}
