//! The budget–quality table of the Optimal Jury Selection System (Figure 1).
//!
//! For a list of candidate budgets, the system solves JSP at each budget and
//! reports the optimal jury, its estimated jury quality, and the budget the
//! jury actually requires. The task provider reads the table to pick the
//! budget–quality trade-off she is comfortable with (e.g. in Figure 1 the
//! jump from 15 to 20 units buys only ≈2.5 % quality, so she settles for the
//! 14-unit jury `{B, C, G}`).

use serde::{Deserialize, Serialize};

use jury_model::{Prior, WorkerId, WorkerPool};

use crate::budget::SearchBudget;
use crate::greedy::MarginalSearch;
use crate::objective::JuryObjective;
use crate::problem::JspInstance;
use crate::solver::JurySolver;

/// One row of the budget–quality table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetQualityRow {
    /// The budget offered to the solver.
    pub budget: f64,
    /// The ids of the selected jury members.
    pub jury: Vec<WorkerId>,
    /// The estimated jury quality of the selected jury.
    pub quality: f64,
    /// The budget the selected jury actually requires (its jury cost).
    pub required_budget: f64,
}

/// The full budget–quality table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetQualityTable {
    rows: Vec<BudgetQualityRow>,
}

impl BudgetQualityTable {
    /// Builds the table by solving JSP once per budget with the given solver.
    pub fn build<S: JurySolver>(
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
        solver: &S,
    ) -> Self {
        let rows = budgets
            .iter()
            .map(|&budget| {
                let instance = JspInstance::new(pool.clone(), budget, prior)
                    .expect("budgets are validated by the caller");
                let result = solver.solve(&instance);
                let mut jury = result.jury.ids();
                jury.sort();
                BudgetQualityRow {
                    budget,
                    jury,
                    quality: result.objective_value,
                    required_budget: result.jury.cost(),
                }
            })
            .collect();
        BudgetQualityTable { rows }
    }

    /// Builds the table with a **warm-started sweep**: one marginal-gain search
    /// state — and one evaluation session, engine-backed where the objective
    /// has an engine for the pool — is carried from each budget to the next in
    /// ascending order. Moving from budget `b` to `b + 1` only pushes the
    /// marginal workers the extra budget affords (each committed after
    /// pool-many `O(buckets)` push/value/pop probes); nothing is re-solved
    /// cold. Every row's reported quality is still a from-scratch score by the
    /// batch objective.
    ///
    /// The sweep reproduces a cold [`crate::GreedyMarginalSolver`] run at
    /// every budget whenever greedy prefixes nest — uniform-cost pools in
    /// particular (Lemma 2 territory), where affordability depends only on
    /// the jury size. On heterogeneous costs the carried jury may differ
    /// from a cold solve (the warm state cannot un-commit a cheap worker to
    /// afford an expensive one), trading a little quality for an
    /// `O(budgets)`-times-cheaper sweep; rows are always feasible and their
    /// qualities exactly re-scored. Requested budget order is preserved in
    /// the output regardless of the internal ascending traversal.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or negative budgets, exactly like
    /// [`Self::build`] (whose per-budget instances reject them).
    pub fn build_warm<O: JuryObjective>(
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
        objective: &O,
    ) -> Self {
        Self::build_warm_budgeted(pool, budgets, prior, objective, SearchBudget::unlimited()).0
    }

    /// [`Self::build_warm`] bounded by a cooperative [`SearchBudget`]: the
    /// carried marginal search polls the budget between probes and stops
    /// extending once it is exhausted. Later rows then repeat the last
    /// committed jury — still feasible and exactly re-scored, just not
    /// pushed further (anytime semantics). Returns the table and whether
    /// the sweep was cut short; an unlimited budget reproduces
    /// [`Self::build_warm`] bit-identically.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or negative budgets, exactly like
    /// [`Self::build_warm`].
    pub fn build_warm_budgeted<O: JuryObjective>(
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
        objective: &O,
        search_budget: SearchBudget,
    ) -> (Self, bool) {
        // [`Self::build`] panics on invalid budgets through its per-budget
        // instances; this path builds only one instance, so check every
        // budget explicitly — a NaN would otherwise slip through the max
        // fold below, make every worker "affordable" (NaN comparisons are
        // false), and poison the carried state for all later rows.
        for &budget in budgets {
            assert!(
                budget.is_finite() && budget >= 0.0,
                "budgets are validated by the caller (got {budget})"
            );
        }
        let mut order: Vec<usize> = (0..budgets.len()).collect();
        order.sort_by(|&a, &b| {
            budgets[a]
                .partial_cmp(&budgets[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let max_budget = budgets.iter().copied().fold(0.0f64, f64::max);
        // The session is sized for the largest jury the widest budget
        // affords, which bounds every narrower row's jury too, so one
        // instance (at the widest budget) serves the whole sweep.
        let instance = JspInstance::new(pool.clone(), max_budget, prior)
            .expect("budgets are validated by the caller");
        let mut search = MarginalSearch::new(objective, &instance).with_budget(search_budget);

        let mut rows: Vec<Option<BudgetQualityRow>> = budgets.iter().map(|_| None).collect();
        for &slot in &order {
            let budget = budgets[slot];
            search.extend_to(budget);
            let mut jury = search.jury().ids();
            jury.sort();
            rows[slot] = Some(BudgetQualityRow {
                budget,
                jury,
                quality: objective.evaluate(search.jury(), prior),
                required_budget: search.spent(),
            });
        }
        let table = BudgetQualityTable {
            rows: rows
                .into_iter()
                .map(|row| row.expect("every requested budget produced a row"))
                .collect(),
        };
        (table, search.truncated())
    }

    /// Builds the table with a **warm-started annealing sweep**: budgets are
    /// walked in ascending order and each one is solved by
    /// [`crate::AnnealingSolver::solve_seeded`] with the previous budget's
    /// jury as the seed — the ROADMAP's warm-anneal follow-up for
    /// quality-critical sweeps on heterogeneous costs, where the marginal
    /// sweep of [`Self::build_warm`] can trail cold annealing rows because
    /// it can never un-commit a cheap worker to afford an expensive one.
    ///
    /// Each seeded run replays the carried jury into the annealing state
    /// (and its incremental session) instead of re-solving from cold, and
    /// the seed competes as a candidate solution, so row qualities are
    /// monotone in the budget by construction. Every row is re-scored by
    /// the batch objective; requested budget order is preserved in the
    /// output regardless of the internal ascending traversal.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or negative budgets, exactly like
    /// [`Self::build`] and [`Self::build_warm`].
    pub fn build_warm_annealing<O: JuryObjective>(
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
        objective: &O,
        config: crate::annealing::AnnealingConfig,
    ) -> Self {
        Self::build_warm_annealing_budgeted(
            pool,
            budgets,
            prior,
            objective,
            config,
            SearchBudget::unlimited(),
        )
        .0
    }

    /// [`Self::build_warm_annealing`] bounded by a cooperative
    /// [`SearchBudget`]: each seeded solve polls the budget in its
    /// temperature and restart loops. An exhausted budget truncates the
    /// remaining solves to their seed/greedy candidates, so every row still
    /// holds a feasible, exactly re-scored jury (anytime semantics).
    /// Returns the table and whether any row's solve was cut short; an
    /// unlimited budget reproduces [`Self::build_warm_annealing`]
    /// bit-identically.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or negative budgets, exactly like
    /// [`Self::build_warm_annealing`].
    pub fn build_warm_annealing_budgeted<O: JuryObjective>(
        pool: &WorkerPool,
        budgets: &[f64],
        prior: Prior,
        objective: &O,
        config: crate::annealing::AnnealingConfig,
        search_budget: SearchBudget,
    ) -> (Self, bool) {
        for &budget in budgets {
            assert!(
                budget.is_finite() && budget >= 0.0,
                "budgets are validated by the caller (got {budget})"
            );
        }
        let mut order: Vec<usize> = (0..budgets.len()).collect();
        order.sort_by(|&a, &b| {
            budgets[a]
                .partial_cmp(&budgets[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let solver = crate::annealing::AnnealingSolver::with_config(objective, config)
            .with_budget(search_budget);

        let mut truncated = false;
        let mut carried = jury_model::Jury::empty();
        let mut rows: Vec<Option<BudgetQualityRow>> = budgets.iter().map(|_| None).collect();
        for &slot in &order {
            let budget = budgets[slot];
            let instance = JspInstance::new(pool.clone(), budget, prior)
                .expect("budgets are validated by the caller");
            let result = solver.solve_seeded(&instance, &carried);
            truncated |= result.truncated;
            let mut jury = result.jury.ids();
            jury.sort();
            rows[slot] = Some(BudgetQualityRow {
                budget,
                jury,
                quality: result.objective_value,
                required_budget: result.jury.cost(),
            });
            carried = result.jury;
        }
        let table = BudgetQualityTable {
            rows: rows
                .into_iter()
                .map(|row| row.expect("every requested budget produced a row"))
                .collect(),
        };
        (table, truncated)
    }

    /// Assembles a table from pre-computed rows (in budget order). Used by
    /// `jury-service`, which solves the per-budget instances through its own
    /// batched, cached execution path rather than via [`Self::build`].
    pub fn from_rows(rows: Vec<BudgetQualityRow>) -> Self {
        BudgetQualityTable { rows }
    }

    /// The table rows, in the order of the requested budgets.
    pub fn rows(&self) -> &[BudgetQualityRow] {
        &self.rows
    }

    /// The row with the smallest budget whose quality reaches `target`, if
    /// any — "how much do I have to pay for 85 %?".
    pub fn cheapest_reaching(&self, target: f64) -> Option<&BudgetQualityRow> {
        self.rows
            .iter()
            .filter(|r| r.quality >= target)
            .min_by(|a, b| a.required_budget.partial_cmp(&b.required_budget).unwrap())
    }

    /// The marginal quality gained per row relative to the previous row —
    /// the quantity the task provider eyeballs to decide when to stop paying.
    pub fn marginal_gains(&self) -> Vec<f64> {
        let mut gains = Vec::with_capacity(self.rows.len());
        for (i, row) in self.rows.iter().enumerate() {
            if i == 0 {
                gains.push(row.quality);
            } else {
                gains.push(row.quality - self.rows[i - 1].quality);
            }
        }
        gains
    }

    /// Renders the table as fixed-width text, mirroring Figure 1's layout.
    pub fn render(&self) -> String {
        let mut out = String::from("Budget | Optimal Jury Set        | Quality | Required\n");
        out.push_str("-------+-------------------------+---------+---------\n");
        for row in &self.rows {
            let jury: Vec<String> = row.jury.iter().map(|id| id.to_string()).collect();
            out.push_str(&format!(
                "{:>6.2} | {:<23} | {:>6.2}% | {:>7.2}\n",
                row.budget,
                format!("{{{}}}", jury.join(", ")),
                row.quality * 100.0,
                row.required_budget
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::objective::BvObjective;
    use jury_model::paper_example_pool;

    fn figure_1_table() -> BudgetQualityTable {
        let solver = ExhaustiveSolver::new(BvObjective::new());
        BudgetQualityTable::build(
            &paper_example_pool(),
            &[5.0, 10.0, 15.0, 20.0],
            Prior::uniform(),
            &solver,
        )
    }

    #[test]
    fn reproduces_the_figure_1_qualities() {
        let table = figure_1_table();
        let qualities: Vec<f64> = table.rows().iter().map(|r| r.quality).collect();
        let expected = [0.75, 0.80, 0.845, 0.8695];
        for (got, want) in qualities.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // Required budgets never exceed the offered budgets.
        for row in table.rows() {
            assert!(row.required_budget <= row.budget + 1e-9);
        }
        // The 15-unit row needs only 14 units, as Figure 1 highlights.
        assert!((table.rows()[2].required_budget - 14.0).abs() < 1e-9);
    }

    #[test]
    fn qualities_are_monotone_in_budget() {
        let table = figure_1_table();
        let mut prev = 0.0;
        for row in table.rows() {
            assert!(row.quality >= prev - 1e-12);
            prev = row.quality;
        }
    }

    #[test]
    fn cheapest_reaching_a_target() {
        let table = figure_1_table();
        let row = table.cheapest_reaching(0.84).unwrap();
        assert!((row.required_budget - 14.0).abs() < 1e-9);
        assert!(table.cheapest_reaching(0.99).is_none());
    }

    #[test]
    fn marginal_gains_match_figure_1s_argument() {
        let table = figure_1_table();
        let gains = table.marginal_gains();
        assert_eq!(gains.len(), 4);
        // Moving from budget 15 to budget 20 buys ≈2.45 % — the increase the
        // paper's task provider deems not worthwhile.
        assert!((gains[3] - 0.0245).abs() < 1e-9);
    }

    #[test]
    fn warm_sweep_matches_cold_solves_on_a_monotone_pool() {
        use crate::greedy::{GreedyMarginalSolver, GreedyQualitySolver};
        // Descending qualities, uniform costs: greedy prefixes nest, so the
        // warm-started sweep must reproduce every cold solve exactly — and
        // by Lemma 2 the top-k fill is the true optimum, so the annealing
        // policy lands on the same qualities too.
        let qualities: Vec<f64> = (0..18).map(|i| 0.92 - 0.02 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 18]).unwrap();
        let budgets = [1.0, 3.0, 5.0, 8.0, 12.0];

        let objective = BvObjective::new();
        let warm = BudgetQualityTable::build_warm(&pool, &budgets, Prior::uniform(), &objective);

        let cold_marginal = BudgetQualityTable::build(
            &pool,
            &budgets,
            Prior::uniform(),
            &GreedyMarginalSolver::new(BvObjective::new()),
        );
        for (w, c) in warm.rows().iter().zip(cold_marginal.rows()) {
            assert_eq!(w.jury, c.jury, "budget {}", w.budget);
            assert!((w.quality - c.quality).abs() < 1e-9);
            assert!((w.required_budget - c.required_budget).abs() < 1e-9);
        }

        let cold_quality = BudgetQualityTable::build(
            &pool,
            &budgets,
            Prior::uniform(),
            &GreedyQualitySolver::new(BvObjective::new()),
        );
        for (w, c) in warm.rows().iter().zip(cold_quality.rows()) {
            assert_eq!(w.jury, c.jury, "budget {}", w.budget);
            assert!((w.quality - c.quality).abs() < 1e-9);
        }

        let cold_annealing = BudgetQualityTable::build(
            &pool,
            &budgets,
            Prior::uniform(),
            &crate::annealing::AnnealingSolver::with_config(
                BvObjective::new(),
                crate::annealing::AnnealingConfig::default()
                    .with_epsilon(1e-4)
                    .with_restarts(2),
            ),
        );
        for (w, c) in warm.rows().iter().zip(cold_annealing.rows()) {
            assert!(
                (w.quality - c.quality).abs() < 1e-9,
                "budget {}: warm {} vs annealing {}",
                w.budget,
                w.quality,
                c.quality
            );
        }
    }

    fn fast_annealing() -> crate::annealing::AnnealingConfig {
        crate::annealing::AnnealingConfig::default()
            .with_epsilon(1e-4)
            .with_restarts(2)
    }

    #[test]
    fn warm_annealing_matches_cold_annealing_on_a_monotone_pool() {
        // Same territory as the marginal warm-sweep test: descending
        // qualities with uniform costs, where Lemma 2 pins the optimum, so
        // the seeded sweep must land on the same row qualities as cold
        // per-budget annealing solves.
        let qualities: Vec<f64> = (0..18).map(|i| 0.92 - 0.02 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 18]).unwrap();
        let budgets = [1.0, 3.0, 5.0, 8.0, 12.0];
        let objective = BvObjective::new();
        let warm = BudgetQualityTable::build_warm_annealing(
            &pool,
            &budgets,
            Prior::uniform(),
            &objective,
            fast_annealing(),
        );
        let cold = BudgetQualityTable::build(
            &pool,
            &budgets,
            Prior::uniform(),
            &crate::annealing::AnnealingSolver::with_config(BvObjective::new(), fast_annealing()),
        );
        let mut previous = 0.0;
        for (w, c) in warm.rows().iter().zip(cold.rows()) {
            assert!(
                (w.quality - c.quality).abs() < 1e-9,
                "budget {}: warm {} vs cold {}",
                w.budget,
                w.quality,
                c.quality
            );
            assert!(w.required_budget <= w.budget + 1e-9);
            assert!(w.quality >= previous - 1e-12, "rows must stay monotone");
            previous = w.quality;
        }
    }

    #[test]
    fn warm_annealing_rows_never_fall_below_the_marginal_sweep_on_hard_costs() {
        // Heterogeneous costs where the marginal sweep can get stuck: one
        // excellent expensive worker among cheap mediocre ones. The seeded
        // annealing sweep may un-commit the cheap fill; its rows must never
        // trail the marginal rows.
        let mut qualities = vec![0.93];
        let mut costs = vec![0.9];
        for _ in 0..8 {
            qualities.push(0.55);
            costs.push(0.12);
        }
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &costs).unwrap();
        let budgets = [0.3, 0.95, 1.3];
        let objective = BvObjective::new();
        let annealed = BudgetQualityTable::build_warm_annealing(
            &pool,
            &budgets,
            Prior::uniform(),
            &objective,
            crate::annealing::AnnealingConfig::default(),
        );
        let marginal =
            BudgetQualityTable::build_warm(&pool, &budgets, Prior::uniform(), &objective);
        for (a, m) in annealed.rows().iter().zip(marginal.rows()) {
            assert!(
                a.quality >= m.quality - 1e-9,
                "budget {}: annealed {} vs marginal {}",
                a.budget,
                a.quality,
                m.quality
            );
        }
        // At budget 0.95 the optimum is the lone 0.93 worker; the marginal
        // sweep cannot reach it from its committed cheap workers.
        assert!((annealed.rows()[1].quality - 0.93).abs() < 1e-9);
    }

    #[test]
    fn warm_annealing_preserves_requested_budget_order() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.9, 0.8, 0.7], &[1.0; 3]).unwrap();
        let budgets = [2.0, 1.0, 3.0];
        let objective = BvObjective::new();
        let table = BudgetQualityTable::build_warm_annealing(
            &pool,
            &budgets,
            Prior::uniform(),
            &objective,
            fast_annealing(),
        );
        let listed: Vec<f64> = table.rows().iter().map(|r| r.budget).collect();
        assert_eq!(listed, budgets);
    }

    #[test]
    #[should_panic(expected = "budgets are validated")]
    fn warm_annealing_rejects_bad_budgets() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.8], &[1.0]).unwrap();
        let objective = BvObjective::new();
        let _ = BudgetQualityTable::build_warm_annealing(
            &pool,
            &[1.0, f64::INFINITY],
            Prior::uniform(),
            &objective,
            fast_annealing(),
        );
    }

    #[test]
    fn warm_sweep_preserves_requested_budget_order() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.9, 0.8, 0.7], &[1.0; 3]).unwrap();
        let budgets = [2.0, 1.0, 3.0];
        let objective = BvObjective::new();
        let table = BudgetQualityTable::build_warm(&pool, &budgets, Prior::uniform(), &objective);
        let listed: Vec<f64> = table.rows().iter().map(|r| r.budget).collect();
        assert_eq!(listed, budgets);
        // Qualities are still monotone when read in budget order.
        assert!(table.rows()[1].quality <= table.rows()[0].quality + 1e-12);
        assert!(table.rows()[0].quality <= table.rows()[2].quality + 1e-12);
    }

    #[test]
    #[should_panic(expected = "budgets are validated")]
    fn warm_sweep_rejects_nan_budgets_like_the_cold_path() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.8, 0.7, 0.6], &[1.0; 3]).unwrap();
        let objective = BvObjective::new();
        let _ =
            BudgetQualityTable::build_warm(&pool, &[f64::NAN, 1.0], Prior::uniform(), &objective);
    }

    #[test]
    fn warm_sweep_handles_degenerate_inputs() {
        let pool = WorkerPool::from_qualities_and_costs(&[0.8], &[5.0]).unwrap();
        let objective = BvObjective::new();
        // No budgets → no rows.
        let empty = BudgetQualityTable::build_warm(&pool, &[], Prior::uniform(), &objective);
        assert!(empty.rows().is_empty());
        assert!(empty.marginal_gains().is_empty());
        assert!(empty.cheapest_reaching(0.0).is_none());
        // A budget below the only worker keeps the empty jury.
        let table = BudgetQualityTable::build_warm(&pool, &[1.0], Prior::uniform(), &objective);
        assert!(table.rows()[0].jury.is_empty());
        assert!((table.rows()[0].quality - 0.5).abs() < 1e-12);
        assert_eq!(table.rows()[0].required_budget, 0.0);
    }

    #[test]
    fn cheapest_reaching_boundaries() {
        let table = figure_1_table();
        // Exact boundary: a target equal to a row's stored quality selects
        // that row (the comparison is inclusive).
        let boundary = table.rows()[2].quality;
        let row = table.cheapest_reaching(boundary).unwrap();
        assert!((row.quality - boundary).abs() < 1e-12);
        assert!((row.required_budget - 14.0).abs() < 1e-9);
        // Every row reaches 0 %, and the cheapest required budget wins.
        let free = table.cheapest_reaching(0.0).unwrap();
        let min_required = table
            .rows()
            .iter()
            .map(|r| r.required_budget)
            .fold(f64::INFINITY, f64::min);
        assert!((free.required_budget - min_required).abs() < 1e-12);
        // Just above the best quality → None.
        let best = table
            .rows()
            .iter()
            .map(|r| r.quality)
            .fold(0.0f64, f64::max);
        assert!(table.cheapest_reaching(best + 1e-6).is_none());
        assert!(table.cheapest_reaching(best).is_some());
    }

    #[test]
    fn marginal_gains_on_a_known_monotone_pool() {
        // Uniform costs and descending qualities: each budget step adds the
        // next-best worker, so the gain sequence starts at the first row's
        // quality and every later gain is non-negative.
        let qualities: Vec<f64> = (0..8).map(|i| 0.9 - 0.04 * i as f64).collect();
        let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 8]).unwrap();
        let budgets: Vec<f64> = (1..=6).map(|b| b as f64).collect();
        let objective = BvObjective::new();
        let table = BudgetQualityTable::build_warm(&pool, &budgets, Prior::uniform(), &objective);
        let gains = table.marginal_gains();
        assert_eq!(gains.len(), budgets.len());
        assert!((gains[0] - table.rows()[0].quality).abs() < 1e-12);
        for (i, gain) in gains.iter().enumerate().skip(1) {
            assert!(*gain >= -1e-12, "gain {i} is negative: {gain}");
        }
        // The gains reconstruct the final quality.
        let total: f64 = gains.iter().sum();
        assert!((total - table.rows().last().unwrap().quality).abs() < 1e-9);
    }

    #[test]
    fn render_produces_one_line_per_row() {
        let table = figure_1_table();
        let text = table.render();
        assert_eq!(text.lines().count(), 2 + table.rows().len());
        assert!(text.contains('%'));
    }
}
