//! Sweeps: one ensemble per cell, folded into one table.
//!
//! An [`EnsembleSpec`] with a `sweep` block is a whole experiment as data.
//! Each [`SweepCell`] is a partial ensemble laid over the spec: its
//! `scenario` fields replace the base scenario's, then the result is read
//! through the same strict derive, so a misspelt key in a cell is an error
//! that names it; its `metrics` and `replications` replace the base's. A
//! cell's trials draw from `SeedTree::new(master_seed).scope(scope)`, and
//! cells may share a scope. Every cell is one row of a [`Table`] whose
//! [`Column`]s are labels the cell spells out or statistics of its
//! [`EnsembleReport`]. `quick` holds the smaller cells that
//! `rbb ensemble --quick` and `rbb-exp --quick` run instead of `cells`.
//!
//! Cells resolve, and are checked against the columns, before any runs.
//! Cells run in order, each fanning its trials out like
//! [`EnsembleSpec::run`], so the table is byte-identical at any
//! `RAYON_NUM_THREADS`.

use serde::{Deserialize, Serialize, Value};

use crate::ensemble::{EnsembleReport, EnsembleSpec, MetricKind, MetricSpec};
use crate::seed::SeedTree;
use crate::spec::{ScenarioSpec, SpecError};
use crate::table::{fmt_f64, Table};

/// The sweep block of an [`EnsembleSpec`]: its table and its cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSpec {
    /// The table's columns, in order.
    pub columns: Vec<Column>,
    /// The cells, one row each.
    pub cells: Vec<SweepCell>,
    /// The smaller cells a quick run takes instead of `cells`.
    pub quick: Vec<SweepCell>,
}

/// One cell of a sweep: what it changes in the base ensemble, its seed
/// scope and its labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepCell {
    /// Seed scope under the ensemble's `master_seed`.
    pub scope: String,
    /// The label columns' values, in column order.
    pub labels: Vec<String>,
    /// Scenario fields, each replacing the base scenario's value whole.
    pub scenario: Option<Value>,
    /// Replaces the base's metrics.
    pub metrics: Option<Vec<MetricSpec>>,
    /// Replaces the base's replication count.
    pub replications: Option<usize>,
}

/// One table column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case", deny_unknown_fields)]
pub enum Column {
    /// The cell's next label, as written.
    Label {
        /// Column header.
        head: String,
    },
    /// `(stat − minus) / per` of one metric's report, with `decimals`
    /// decimals.
    Stat {
        /// Column header.
        head: String,
        /// The metric read.
        metric: MetricKind,
        /// The statistic read.
        stat: Stat,
        /// A cell quantity subtracted from it.
        minus: Option<Quantity>,
        /// A cell quantity it is divided by.
        per: Option<Quantity>,
        /// Decimals printed.
        decimals: usize,
    },
}

/// A statistic of a [`MetricReport`](crate::ensemble::MetricReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub enum Stat {
    /// Mean over the trials that gave a value.
    Mean,
    /// Largest value.
    Max,
    /// Trials that gave no value.
    Missing,
    /// Trials at or above the metric's first threshold.
    ExceedCount,
    /// Their share, `P(X ≥ t)`.
    TailP,
    /// The Wilson upper bound on that share.
    WilsonHi,
    /// Half the width of the mean's confidence interval.
    CiHalfWidth,
}

impl Stat {
    /// Whether the statistic reads the metric's first threshold.
    fn reads_tail(self) -> bool {
        matches!(self, Stat::ExceedCount | Stat::TailP | Stat::WilsonHi)
    }
}

/// A quantity of a cell's scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub enum Quantity {
    /// Bins, as the scenario requests them.
    N,
    /// Balls.
    M,
    /// `ln n`.
    LnN,
    /// `ln ln n`.
    LnLnN,
    /// `m / n`.
    MOverN,
}

impl Quantity {
    fn of(self, spec: &ScenarioSpec) -> f64 {
        let (n, m) = (spec.n as f64, spec.balls_or_default() as f64);
        match self {
            Quantity::N => n,
            Quantity::M => m,
            Quantity::LnN => n.ln(),
            Quantity::LnLnN => n.ln().ln(),
            Quantity::MOverN => m / n,
        }
    }
}

impl Column {
    fn head(&self) -> &str {
        match self {
            Column::Label { head } | Column::Stat { head, .. } => head,
        }
    }

    /// The cell's entry in this column; `labels` yields the cell's labels
    /// in order.
    fn render(
        &self,
        labels: &mut std::slice::Iter<'_, String>,
        cell: &EnsembleSpec,
        report: &EnsembleReport,
    ) -> Result<String, SpecError> {
        let Column::Stat {
            head,
            metric,
            stat,
            minus,
            per,
            decimals,
        } = self
        else {
            return labels
                .next()
                .cloned()
                .ok_or_else(|| SpecError("a cell has too few labels".into()));
        };
        let missing = || SpecError(format!("column '{head}' reads a statistic no cell reports"));
        let r = report.metric(*metric).ok_or_else(missing)?;
        let tail = || r.tails.first().ok_or_else(missing);
        let v = match stat {
            Stat::Mean => r.mean,
            Stat::Max => r.max,
            Stat::Missing => r.missing as f64,
            Stat::ExceedCount => tail()?.exceed_count as f64,
            Stat::TailP => tail()?.probability,
            Stat::WilsonHi => tail()?.wilson.hi,
            Stat::CiHalfWidth => (r.mean_ci.hi - r.mean_ci.lo) / 2.0,
        };
        let v = minus.map_or(v, |q| v - q.of(&cell.scenario));
        let v = per.map_or(v, |q| v / q.of(&cell.scenario));
        Ok(fmt_f64(v, *decimals))
    }
}

impl EnsembleSpec {
    /// The sweep's cells (its `quick` cells if `quick`) as validated
    /// ensembles, each with its labels. Errors name the cell's scope.
    pub fn sweep_cells(&self, quick: bool) -> Result<Vec<(Vec<String>, EnsembleSpec)>, SpecError> {
        let sweep = (self.sweep.as_ref()).ok_or_else(|| SpecError("no sweep block".into()))?;
        let label_columns = (sweep.columns.iter())
            .filter(|c| matches!(c, Column::Label { .. }))
            .count();
        let base = self.scenario.serialize();
        let base = base.as_object().unwrap_or_default();
        let tree = SeedTree::new(self.master_seed);
        let cells = if quick { &sweep.quick } else { &sweep.cells };
        let resolve = |cell: &SweepCell| -> Result<EnsembleSpec, String> {
            if cell.labels.len() != label_columns {
                return Err(format!(
                    "{label_columns} label columns, but the cell has {} labels",
                    cell.labels.len()
                ));
            }
            let scenario = match &cell.scenario {
                None => self.scenario.clone(),
                Some(set) => {
                    let set = set.as_object().ok_or("scenario: expected an object")?;
                    let mut merged = set.to_vec();
                    let kept = base.iter().filter(|(k, _)| set.iter().all(|(s, _)| s != k));
                    merged.extend(kept.cloned());
                    ScenarioSpec::deserialize(&Value::Object(merged))
                        .map_err(|e| format!("scenario: {e}"))?
                }
            };
            let spec = EnsembleSpec {
                scenario,
                master_seed: tree.scope(&cell.scope).master(),
                replications: cell.replications.unwrap_or(self.replications),
                metrics: cell.metrics.clone().unwrap_or_else(|| self.metrics.clone()),
                report: self.report.clone(),
                sweep: None,
            };
            spec.validate().map_err(|e| e.0)?;
            for column in &sweep.columns {
                let Column::Stat {
                    head, metric, stat, ..
                } = column
                else {
                    continue;
                };
                let read = spec.metrics.iter().find(|m| m.kind == *metric);
                if read.is_none_or(|m| stat.reads_tail() && m.thresholds.is_empty()) {
                    return Err(format!(
                        "column '{head}' reads '{}'{}, which the cell does not request",
                        metric.name(),
                        if stat.reads_tail() {
                            " at a threshold"
                        } else {
                            ""
                        }
                    ));
                }
            }
            Ok(spec)
        };
        cells
            .iter()
            .map(|cell| match resolve(cell) {
                Ok(spec) => Ok((cell.labels.clone(), spec)),
                Err(e) => Err(SpecError(format!("sweep cell '{}': {e}", cell.scope))),
            })
            .collect()
    }

    /// Runs the sweep block: every cell's ensemble, one table row each.
    pub fn run_sweep(&self, quick: bool) -> Result<Table, SpecError> {
        let cells = self.sweep_cells(quick)?;
        let columns = self.sweep.as_ref().map_or(&[][..], |s| &s.columns);
        let mut table = Table::new(columns.iter().map(Column::head));
        for (labels, cell) in &cells {
            let report = cell.run()?;
            let mut labels = labels.iter();
            let row = (columns.iter())
                .map(|c| c.render(&mut labels, cell, &report))
                .collect::<Result<Vec<_>, _>>()?;
            table.row(row);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::MetricSpec;

    /// Two cells over a 32-bin base: `n`, then the window max's mean, its
    /// mean per ln n, and its tail at 9.
    fn sweep(cells: &str) -> EnsembleSpec {
        serde_json::from_str(&format!(
            r#"{{
                "scenario": {{"n": 32, "start": {{"kind": "one-per-bin"}}, "arrival": {{"kind": "uniform"}},
                    "topology": {{"kind": "complete"}}, "horizon": {{"kind": "rounds", "rounds": 300}},
                    "stop": "horizon", "seed": 1}},
                "master_seed": 5, "replications": 4,
                "metrics": [{{"kind": "window-max-load", "thresholds": [9]}}],
                "sweep": {{"columns": [
                    {{"kind": "label", "head": "n"}},
                    {{"kind": "stat", "head": "mean", "metric": "window-max-load", "stat": "mean", "decimals": 2}},
                    {{"kind": "stat", "head": "mean/ln n", "metric": "window-max-load", "stat": "mean", "per": "ln-n", "decimals": 3}},
                    {{"kind": "stat", "head": "P(≥ 9)", "metric": "window-max-load", "stat": "tail-p", "decimals": 3}}
                ], "cells": [{cells}], "quick": []}}
            }}"#
        ))
        .unwrap()
    }

    const CELLS: &str = r#"{"scope": "a", "labels": ["32"]}, {"scope": "b", "labels": ["64"], "scenario": {"n": 64}, "replications": 2}"#;

    #[test]
    fn each_cell_is_its_ensemble_under_its_scope() {
        let spec = sweep(CELLS);
        let table = spec.run_sweep(false).unwrap().render();
        for (row, (n, scope, reps)) in table.lines().skip(2).zip([(32, "a", 4), (64, "b", 2)]) {
            let scenario = ScenarioSpec {
                n,
                ..spec.scenario.clone()
            };
            let master = SeedTree::new(5).scope(scope).master();
            let report = EnsembleSpec::new(scenario, master, reps)
                .with_metrics(vec![MetricSpec::with_thresholds(
                    MetricKind::WindowMaxLoad,
                    vec![9.0],
                )])
                .run()
                .unwrap();
            let wml = report.metric(MetricKind::WindowMaxLoad).unwrap();
            let want = [
                n.to_string(),
                fmt_f64(wml.mean, 2),
                fmt_f64(wml.mean / (n as f64).ln(), 3),
                fmt_f64(wml.tails[0].probability, 3),
            ];
            let got: Vec<&str> = row.split_whitespace().collect();
            assert_eq!(got, want, "{table}");
        }
        // A sweep round-trips through JSON, and runs its quick cells.
        let json = serde_json::to_string_pretty(&spec).unwrap();
        assert_eq!(serde_json::from_str::<EnsembleSpec>(&json).unwrap(), spec);
        assert_eq!(spec.run_sweep(true).unwrap().len(), 0);
    }

    #[test]
    fn bad_cells_are_refused_before_any_runs() {
        let err = |cells: &str| sweep(cells).run_sweep(false).unwrap_err().0;
        let misspelt = err(r#"{"scope": "a", "labels": ["32"], "scenario": {"nn": 64}}"#);
        assert!(
            misspelt.contains("sweep cell 'a'") && misspelt.contains("no field 'nn'"),
            "{misspelt}"
        );
        let twice = err(r#"{"scope": "a", "labels": ["32"], "scenario": {"n": 3, "n": 64}}"#);
        assert!(twice.contains("field 'n' twice"), "{twice}");
        let labels = err(r#"{"scope": "a", "labels": []}"#);
        assert!(
            labels.contains("1 label columns, but the cell has 0 labels"),
            "{labels}"
        );
        let untailed =
            err(r#"{"scope": "a", "labels": ["32"], "metrics": [{"kind": "window-max-load"}]}"#);
        assert!(
            untailed.contains("column 'P(≥ 9)' reads 'window-max-load' at a threshold"),
            "{untailed}"
        );
        let invalid = err(r#"{"scope": "a", "labels": ["32"], "replications": 0}"#);
        assert!(
            invalid.contains("replications must be positive"),
            "{invalid}"
        );
        assert!(EnsembleSpec::new(ScenarioSpec::builder(8).build(), 1, 1)
            .run_sweep(false)
            .is_err());
    }
}
