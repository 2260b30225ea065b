//! Shared experiment infrastructure: context, registry entries, and the
//! runner of the experiments that are committed sweep specs.

use rbb_sim::{EnsembleSpec, OutputSink, SeedTree, SpecError};

/// Everything an experiment needs to run.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Seed tree scoped to this experiment.
    pub seeds: SeedTree,
    /// Reduced sizes for smoke runs (`--quick`).
    pub quick: bool,
    /// Artifact sink (`results/<id>/`), possibly disabled.
    pub sink: OutputSink,
}

impl ExpContext {
    /// A context for unit tests: quick sizes, no artifacts, fixed seed.
    pub fn for_tests(id: &str) -> Self {
        Self {
            seeds: SeedTree::new(0xC0FFEE).scope(id),
            quick: true,
            sink: OutputSink::disabled(),
        }
    }

    /// Picks `full` or `quick` depending on the context.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// How an experiment runs.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// Code that prints its own header and tables.
    Code(fn(&ExpContext)),
    /// Committed sweep specs (`specs/ensemble-eNN*.json`), one table each.
    Sweeps(&'static [&'static str]),
}

/// A registered experiment.
pub struct Experiment {
    /// Identifier, e.g. `"e01"`.
    pub id: &'static str,
    /// Short title for the listing.
    pub title: &'static str,
    /// The paper claim being reproduced.
    pub claim: &'static str,
    /// Entry point.
    pub run: Run,
}

impl Experiment {
    /// The experiment's sweep specs as parsed, with `master_seed` set to
    /// the context's: the seeds `ctx.seeds.scope(cell)` gives each cell.
    /// Empty for code.
    pub fn sweeps(&self, ctx: &ExpContext) -> Result<Vec<EnsembleSpec>, SpecError> {
        let Run::Sweeps(texts) = self.run else {
            return Ok(Vec::new());
        };
        (texts.iter())
            .map(|text| {
                let mut spec: EnsembleSpec = (serde_json::from_str(text))
                    .map_err(|e| SpecError(format!("{}: {e}", self.id)))?;
                spec.master_seed = ctx.seeds.master();
                Ok(spec)
            })
            .collect()
    }

    /// Runs the experiment, printing its header and tables. A sweep's
    /// tables go to the artifact sink too, under its scenario name.
    pub fn execute(&self, ctx: &ExpContext) -> Result<(), SpecError> {
        if let Run::Code(run) = self.run {
            run(ctx);
            return Ok(());
        }
        header(self.id, self.title, self.claim);
        for (i, spec) in self.sweeps(ctx)?.iter().enumerate() {
            let table = spec.run_sweep(ctx.quick)?.render();
            print!("{}{table}", if i > 0 { "\n" } else { "" });
            let name = spec.scenario.name.as_deref().unwrap_or("table");
            let _ = ctx.sink.write_text(name, &table);
        }
        Ok(())
    }
}

/// Prints the standard experiment header.
pub fn header(id: &str, title: &str, claim: &str) {
    println!("\n=== {} — {} ===", id.to_uppercase(), title);
    println!("claim: {claim}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_context_is_quick_and_silent() {
        let ctx = ExpContext::for_tests("e00");
        assert!(ctx.quick);
        assert!(!ctx.sink.enabled());
        assert_eq!(ctx.pick(10, 2), 2);
    }

    #[test]
    fn contexts_scope_seeds_by_id() {
        let a = ExpContext::for_tests("e01");
        let b = ExpContext::for_tests("e02");
        assert_ne!(a.seeds.master(), b.seeds.master());
    }
}
