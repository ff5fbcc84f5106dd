//! `qrank pagerank` — score a graph.

use qrank_graph::io::read_edge_list;
use qrank_rank::{
    hits, indegree_scores, opic, pagerank, solve_auto, OpicPolicy, PageRankConfig, ScoreScale,
};

use crate::args::{parse, write_output, CliError};

const USAGE: &str = "\
qrank pagerank --graph <file> [options]

options:
  --graph FILE     input edge list
  --solver NAME    power | gauss-seidel | hits | indegree | opic (default
                   power; `auto` is another name for gauss-seidel, the
                   solver the pipeline uses)
  --damping D      paper-style damping d = teleport probability (default 0.15)
  --scale S        probability | per-page (default per-page, as in the paper)
  --top K          print only the top K pages (default: all)
  --out FILE       write `node<TAB>score` TSV (default stdout)
  --trace FILE     write the solver's per-iteration convergence trace as
                   `iter<TAB>residual` TSV (PageRank solvers only —
                   power, gauss-seidel)";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let allowed = ["graph", "solver", "damping", "scale", "top", "out", "trace"];
    let p = parse(argv, &allowed, USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let path = p.require("graph", USAGE)?;
    let text = std::fs::read_to_string(path)?;
    let g = read_edge_list(text.as_bytes()).map_err(|e| CliError::Runtime(e.to_string()))?;

    let damping: f64 = p.get_or("damping", 0.15, USAGE)?;
    let scale = match p.get("scale").unwrap_or("per-page") {
        "probability" => ScoreScale::Probability,
        "per-page" => ScoreScale::PerPage,
        other => return Err(CliError::usage(format!("unknown scale `{other}`"), USAGE)),
    };
    let cfg = PageRankConfig {
        scale,
        ..PageRankConfig::paper_style(damping)
    };

    let solver = p.get("solver").unwrap_or("power");
    // PageRank solvers report per-iteration residuals; the other
    // rankers have no convergence trace to write.
    let (scores, residuals) = match solver {
        "power" => {
            let r = pagerank(&g, &cfg);
            (r.scores, Some(r.residuals))
        }
        "gauss-seidel" | "auto" => {
            let r = solve_auto(&g, &cfg, None);
            (r.scores, Some(r.residuals))
        }
        "hits" => (hits(&g, 1e-10, 200).authorities, None),
        "indegree" => (indegree_scores(&g), None),
        "opic" => (
            opic(
                &g,
                1.0 - damping,
                g.num_nodes() * 50,
                OpicPolicy::RoundRobin,
            )
            .scores,
            None,
        ),
        other => return Err(CliError::usage(format!("unknown solver `{other}`"), USAGE)),
    };

    if let Some(trace_path) = p.get("trace") {
        let Some(residuals) = &residuals else {
            return Err(CliError::usage(
                format!("solver `{solver}` has no per-iteration residual trace"),
                USAGE,
            ));
        };
        let mut trace = String::new();
        for (i, r) in residuals.iter().enumerate() {
            trace.push_str(&format!("{}\t{r:.6e}\n", i + 1));
        }
        write_output(Some(trace_path), &trace)?;
        eprintln!("{} iterations traced to {trace_path}", residuals.len());
    }

    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("no NaN")
            .then(a.cmp(&b))
    });
    let top: usize = p.get_or("top", scores.len(), USAGE)?;
    let mut out = String::new();
    for &node in order.iter().take(top) {
        out.push_str(&format!("{node}\t{:.10}\n", scores[node]));
    }
    write_output(p.get("out"), &out)?;
    eprintln!("{} nodes scored with `{solver}`", scores.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// One file per test: tests run in parallel, and a rewrite racing
    /// another test's read hands it a truncated graph.
    fn write_sample_graph(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qrank_cli_test_pr").join(test);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        std::fs::write(&path, "# nodes: 4\n0 1\n1 2\n2 0\n3 0\n").unwrap();
        path
    }

    #[test]
    fn scores_all_solvers() {
        let path = write_sample_graph("scores_all_solvers");
        let dir = path.parent().unwrap();
        for solver in ["power", "gauss-seidel", "auto", "hits", "indegree", "opic"] {
            let out = dir.join(format!("{solver}.tsv"));
            run(&argv(&[
                "--graph",
                path.to_str().unwrap(),
                "--solver",
                solver,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap_or_else(|e| panic!("{solver}: {e}"));
            let text = std::fs::read_to_string(&out).unwrap();
            assert_eq!(text.lines().count(), 4, "{solver}");
        }
    }

    #[test]
    fn top_k_limits_output() {
        let path = write_sample_graph("top_k_limits_output");
        let out = path.parent().unwrap().join("top.tsv");
        run(&argv(&[
            "--graph",
            path.to_str().unwrap(),
            "--top",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap().lines().count(), 2);
    }

    #[test]
    fn trace_writes_one_residual_per_iteration() {
        let path = write_sample_graph("trace_writes_one_residual_per_iteration");
        let dir = path.parent().unwrap();
        for solver in ["power", "auto"] {
            let trace = dir.join(format!("{solver}.trace.tsv"));
            run(&argv(&[
                "--graph",
                path.to_str().unwrap(),
                "--solver",
                solver,
                "--trace",
                trace.to_str().unwrap(),
                "--out",
                dir.join("scores.tsv").to_str().unwrap(),
            ]))
            .unwrap();
            let text = std::fs::read_to_string(&trace).unwrap();
            assert!(text.lines().count() > 1, "{solver}: {text}");
            let first = text.lines().next().unwrap();
            assert!(first.starts_with("1\t"), "{solver}: {first}");
        }
    }

    #[test]
    fn trace_rejects_solvers_without_residuals() {
        let path = write_sample_graph("trace_rejects_solvers_without_residuals");
        assert!(matches!(
            run(&argv(&[
                "--graph",
                path.to_str().unwrap(),
                "--solver",
                "indegree",
                "--trace",
                "/tmp/never-written.tsv",
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_file_is_runtime_error() {
        assert!(matches!(
            run(&argv(&["--graph", "/nonexistent/file.edges"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn removed_solvers_and_threads_are_usage_errors() {
        let path = write_sample_graph("removed_solvers_and_threads_are_usage_errors");
        let graph = path.to_str().unwrap();
        for solver in ["colored", "parallel"] {
            assert!(
                matches!(
                    run(&argv(&["--graph", graph, "--solver", solver])),
                    Err(CliError::Usage(_))
                ),
                "{solver}"
            );
        }
        assert!(matches!(
            run(&argv(&["--graph", graph, "--threads", "4"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bad_solver_is_usage_error() {
        let path = write_sample_graph("bad_solver_is_usage_error");
        assert!(matches!(
            run(&argv(&[
                "--graph",
                path.to_str().unwrap(),
                "--solver",
                "magic"
            ])),
            Err(CliError::Usage(_))
        ));
    }
}
