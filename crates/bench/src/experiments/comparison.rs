//! E5 — sample-budget formulas (paper §1's headline comparison),
//! E6 — measured head-to-head vs the ACJR-style baseline, and
//! E11 — crossovers against naive Monte Carlo and exact counting.

use crate::table::{fdur, fnum, Table};
use fpras_automata::exact::{count_exact, Determinization};
use fpras_baselines::{run_counter, AcjrParams, CounterKind};
use fpras_core::Params;
use fpras_numeric::stats::fit_power_law;
use fpras_workloads::{families, random_nfa, RandomNfaConfig};
use rand::{rngs::SmallRng, SeedableRng};

/// E5: analytic per-state sample budgets, ACJR `O((mn/ε)⁷)` vs this
/// paper's `Õ(n⁴/ε²)`, plus the runnable practical profiles.
pub fn e5_sample_budgets(_quick: bool) -> String {
    let mut out = String::new();
    out.push_str(
        "### E5 — samples per (state, level) (paper §1)\n\n\
         Claim: ACJR maintains `O(m⁷n⁷/ε⁷)` samples per state; this paper maintains\n\
         `Õ(n⁴/ε²)` — independent of `m`. Formula values below are the exact constants\n\
         from each paper's Algorithm (log base e); the two right columns are the\n\
         runnable practical profiles used in measured experiments.\n\n",
    );
    let mut table = Table::new(vec![
        "m",
        "n",
        "ε",
        "ACJR κ⁷ (paper)",
        "ours ns (paper)",
        "ACJR ns (practical)",
        "ours ns (practical)",
    ]);
    for &(m, n, eps) in
        &[(8usize, 8usize, 0.3f64), (16, 16, 0.2), (32, 16, 0.2), (16, 32, 0.2), (64, 64, 0.1)]
    {
        let kappa = (m * n) as f64 / eps;
        let acjr_paper = kappa.powi(7);
        let ours_paper = Params::paper(eps, 0.1, m, n).ns as f64;
        let acjr_prac = AcjrParams::practical(eps, 0.1, m, n).ns as f64;
        let ours_prac = Params::practical(eps, 0.1, m, n).ns as f64;
        table.row(vec![
            m.to_string(),
            n.to_string(),
            eps.to_string(),
            fnum(acjr_paper),
            fnum(ours_paper),
            fnum(acjr_prac),
            fnum(ours_prac),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nNote how the paper-profile gap widens with every parameter, and how only the\n\
         `ours` columns are flat in `m` — the structural improvement the paper claims.\n",
    );
    out
}

/// E6: measured ours-vs-ACJR comparison at equal accuracy targets.
pub fn e6_vs_acjr(quick: bool) -> String {
    let n = 10;
    let eps = 0.3;
    let delta = 0.1;
    let trials = if quick { 3 } else { 10 };
    let ms: &[usize] = if quick { &[4, 8] } else { &[4, 8, 12, 16] };
    let mut out = String::new();
    out.push_str(&format!(
        "### E6 — head-to-head vs ACJR-style baseline (paper §1)\n\n\
         Claim: total-time formulas `Õ(m¹⁷n¹⁷ε⁻¹⁴)` (ACJR) vs `Õ((m²n¹⁰+m³n⁶)ε⁻⁴)`\n\
         (ours) — unrunnable at faithful constants, so both run their practical\n\
         profiles here; the measured trend in m is what must match: the ACJR-style\n\
         baseline's cost grows faster because its per-state sample budget scales\n\
         with m. Setup: random NFAs, n = {n}, ε = {eps}, δ = {delta}, {trials} runs.\n\n"
    ));
    let mut table = Table::new(vec![
        "m",
        "ours wall",
        "acjr wall",
        "ours ops",
        "acjr ops",
        "ours err",
        "acjr err",
    ]);
    let mut series: Vec<(f64, f64, f64, f64, f64)> = Vec::new(); // m, ours wall, acjr wall, ours ops, acjr ops
    for &m in ms {
        let config = RandomNfaConfig { states: m, density: 1.6, ..Default::default() };
        let nfa = random_nfa(&config, &mut SmallRng::seed_from_u64(6000 + m as u64));
        let exact = count_exact(&nfa, n).expect("small instances count exactly").to_f64();
        let mut acc = [(0.0f64, 0u64, 0.0f64); 2]; // (wall, ops, err) per method
        for seed in 0..trials as u64 {
            for (slot, kind) in [CounterKind::Fpras { threads: 1, batch: true }, CounterKind::Acjr]
                .iter()
                .enumerate()
            {
                let outp = run_counter(kind, &nfa, n, eps, delta, 6100 + seed).expect("run");
                acc[slot].0 += outp.wall.as_secs_f64();
                acc[slot].1 += outp.ops;
                if exact > 0.0 {
                    acc[slot].2 += (outp.estimate.to_f64() - exact).abs() / exact;
                }
            }
        }
        let t = trials as f64;
        series.push((
            m as f64,
            acc[0].0 / t,
            acc[1].0 / t,
            acc[0].1 as f64 / t,
            acc[1].1 as f64 / t,
        ));
        table.row(vec![
            m.to_string(),
            fdur(std::time::Duration::from_secs_f64(acc[0].0 / t)),
            fdur(std::time::Duration::from_secs_f64(acc[1].0 / t)),
            fnum(acc[0].1 as f64 / t),
            fnum(acc[1].1 as f64 / t),
            fnum(acc[0].2 / t),
            fnum(acc[1].2 / t),
        ]);
    }
    out.push_str(&table.render());
    let ms_f: Vec<f64> = series.iter().map(|s| s.0).collect();
    let fits = [
        ("ours wall", series.iter().map(|s| s.1).collect::<Vec<_>>()),
        ("acjr wall", series.iter().map(|s| s.2).collect::<Vec<_>>()),
        ("ours ops", series.iter().map(|s| s.3).collect::<Vec<_>>()),
        ("acjr ops", series.iter().map(|s| s.4).collect::<Vec<_>>()),
    ];
    out.push('\n');
    for (name, ys) in fits {
        if let Some(fit) = fit_power_law(&ms_f, &ys) {
            out.push_str(&format!(
                "Fitted {name} exponent in m: **{:.2}** (R² = {:.3}).\n",
                fit.exponent, fit.r_squared
            ));
        }
    }
    out.push_str(
        "\nThe claim under test is the *growth* gap: the ACJR-style per-state budget\n\
         scales with m, so its cost exponent in m must exceed ours.\n",
    );
    out
}

/// E11: where each method lives and dies — dense vs thin vs
/// determinization-blow-up instances.
pub fn e11_crossover(quick: bool) -> String {
    let mut out = String::new();
    out.push_str(
        "### E11 — crossovers vs naive MC and exact counting (paper §1 motivation)\n\n\
         Dense languages: naive Monte Carlo is unbeatable. Thin languages: naive MC\n\
         returns 0 forever. Determinization-hostile NFAs: exact counting blows up in m\n\
         while the FPRAS stays polynomial. All three regimes in one table; `—` marks\n\
         failure (naive: zero hits; exact: subset-cap exceeded).\n\n",
    );
    let k_blow = if quick { 14 } else { 20 };
    let instances = vec![
        ("dense (all-words)", families::all_words(), 20usize),
        ("thin (single word)", families::thin_chain(20), 20),
        ("blow-up (kth-from-end)", families::kth_symbol_from_end(k_blow), k_blow + 4),
    ];
    let naive_trials = if quick { 20_000 } else { 200_000 };
    let mut table = Table::new(vec![
        "instance",
        "n",
        "exact",
        "fpras est",
        "fpras wall",
        "naive est",
        "naive wall",
        "exact-dp wall",
        "dp width",
    ]);
    for (name, nfa, n) in instances {
        let fp =
            run_counter(&CounterKind::Fpras { threads: 1, batch: true }, &nfa, n, 0.3, 0.1, 11_000)
                .expect("fpras");
        let nv =
            run_counter(&CounterKind::NaiveMc { trials: naive_trials }, &nfa, n, 0.3, 0.1, 11_001)
                .expect("naive");
        let start = std::time::Instant::now();
        let dp = Determinization::build_capped(&nfa, n, 1 << 18);
        let dp_wall = start.elapsed();
        let (exact_str, dp_wall_str, width_str) = match &dp {
            Ok(d) => (fnum(d.slice_count(n).to_f64()), fdur(dp_wall), d.max_width().to_string()),
            Err(_) => ("—".to_string(), "—".to_string(), format!(">{}", 1 << 18)),
        };
        let naive_est = if nv.estimate.is_zero() {
            "— (0 hits)".to_string()
        } else {
            fnum(nv.estimate.to_f64())
        };
        table.row(vec![
            name.to_string(),
            n.to_string(),
            exact_str,
            fnum(fp.estimate.to_f64()),
            fdur(fp.wall),
            naive_est,
            fdur(nv.wall),
            dp_wall_str,
            width_str,
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_renders() {
        let out = e5_sample_budgets(true);
        assert!(out.contains("E5"));
        assert!(out.contains("κ⁷"));
    }

    #[test]
    fn e6_renders() {
        let out = e6_vs_acjr(true);
        assert!(out.contains("acjr wall"));
    }

    #[test]
    fn e11_renders() {
        let out = e11_crossover(true);
        assert!(out.contains("thin (single word)"));
        assert!(out.contains("— (0 hits)"));
    }
}
