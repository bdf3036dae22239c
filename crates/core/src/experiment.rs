//! Experiment bookkeeping: machine-readable records of every table/figure run, written under
//! `target/experiments/` by the bench harness and the examples, and referenced by
//! `EXPERIMENTS.md`.
//!
//! Two formats are emitted per experiment: a JSON document with the full structured result, and
//! a gnuplot-friendly tab-separated file for each plotted series.

use kronpriv_json::ToJson;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Where experiment outputs are written: `<workspace>/target/experiments/<experiment>/`.
pub fn experiment_dir(experiment: &str) -> PathBuf {
    let base = std::env::var_os("KRONPRIV_EXPERIMENT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("experiments"));
    base.join(experiment)
}

/// Serialises `value` as pretty JSON into `<experiment dir>/<name>.json`, creating directories
/// as needed, and returns the path written.
pub fn write_json<T: ToJson>(
    experiment: &str,
    name: &str,
    value: &T,
) -> Result<PathBuf, io::Error> {
    let dir = experiment_dir(experiment);
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, kronpriv_json::to_string_pretty(value))?;
    Ok(path)
}

/// Writes a tab-separated series (one `x<TAB>y` line per point, preceded by a `# header`) into
/// `<experiment dir>/<name>.tsv` and returns the path written.
pub fn write_series(
    experiment: &str,
    name: &str,
    header: &str,
    points: &[(f64, f64)],
) -> Result<PathBuf, io::Error> {
    let dir = experiment_dir(experiment);
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.tsv"));
    let mut out = format!("# {header}\n");
    for (x, y) in points {
        out.push_str(&format!("{x}\t{y}\n"));
    }
    fs::write(&path, out)?;
    Ok(path)
}

/// Renders a fixed-width text table (the format the `table1` harness prints) from a header row
/// and data rows. Purely cosmetic, but shared between the harness binaries.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let columns = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kronpriv_json::impl_json_struct;

    struct Dummy {
        value: u32,
        label: String,
    }
    impl_json_struct!(Dummy { value, label });

    fn with_temp_experiment_dir<T>(test: impl FnOnce() -> T) -> T {
        // The override is process-global and the dir is removed afterwards, so two tests that
        // overlapped on parallel test threads could delete each other's outputs.
        static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = EXCLUSIVE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Route outputs into a unique temp dir so tests never collide with real experiments.
        let dir = std::env::temp_dir().join(format!("kronpriv-exp-{}", std::process::id()));
        std::env::set_var("KRONPRIV_EXPERIMENT_DIR", &dir);
        let result = test();
        std::env::remove_var("KRONPRIV_EXPERIMENT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    #[test]
    fn json_round_trips_through_disk() {
        with_temp_experiment_dir(|| {
            let path = write_json("unit", "dummy", &Dummy { value: 3, label: "x".into() }).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains("\"value\": 3"));
            assert!(path.ends_with("unit/dummy.json"));
        });
    }

    #[test]
    fn series_files_are_gnuplot_friendly() {
        with_temp_experiment_dir(|| {
            let path =
                write_series("unit", "curve", "hops vs pairs", &[(0.0, 4.0), (1.0, 10.0)]).unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text, "# hops vs pairs\n0\t4\n1\t10\n");
        });
    }

    #[test]
    fn render_table_aligns_columns() {
        let table = render_table(
            &["network", "a", "b"],
            &[
                vec!["CA-GrQc".to_string(), "1.000".to_string(), "0.467".to_string()],
                vec!["AS20".to_string(), "1.0".to_string(), "0.63".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("network"));
        assert!(lines[2].starts_with("CA-GrQc"));
        // All data lines have the same alignment width for the first column.
        assert_eq!(lines[2].find("1.000"), lines[3].find("1.0"));
    }
}
