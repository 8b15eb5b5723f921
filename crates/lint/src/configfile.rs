//! A dependency-free parser for FDMAX configuration files.
//!
//! The format is a strict subset of TOML: one `key = value` pair per
//! line, `#` comments, optional `[section]` headers (accepted and
//! ignored, so files organized as `[accelerator]` / `[deployment]`
//! sections parse the same). Recognized keys:
//!
//! | key            | meaning                               | default |
//! |----------------|---------------------------------------|---------|
//! | `pe_rows`      | physical PE-array rows                | 8       |
//! | `pe_cols`      | physical PE-array columns             | 8       |
//! | `fifo_depth`   | entries per physical nFIFO/pFIFO      | 64      |
//! | `buffer_banks` | banks per on-chip buffer              | 32      |
//! | `buffer_depth` | elements per bank                     | 32      |
//! | `clock_mhz`    | clock frequency, MHz                  | 200     |
//! | `dram_gb_s`    | DRAM bandwidth, GB/s                  | 128     |
//! | `grid_rows`    | deployment grid rows                  | 1000    |
//! | `grid_cols`    | deployment grid columns               | 1000    |
//! | `method`       | `"jacobi"`/`"hybrid"` (or `"J"`/`"H"`)| jacobi  |
//! | `subarrays`    | explicit elastic: chain count         | planner |
//! | `width`        | explicit elastic: PEs per chain       | planner |
//!
//! `subarrays` and `width` must appear together (or not at all); without
//! them the planner picks the cycle-minimizing decomposition, exactly as
//! the accelerator constructors do.
//!
//! Files may additionally size the solve service in front of the
//! accelerator (any one key activates the service lint, FDX011; the
//! others fall back to the [`fdmax::ServiceConfig`] defaults):
//!
//! | key                   | meaning                           | default |
//! |-----------------------|-----------------------------------|---------|
//! | `queue_capacity`      | bounded admission-queue depth     | 16      |
//! | `max_job_iterations`  | per-job iteration cap             | 1000    |
//! | `deadline_iterations` | per-job deadline budget           | 20000   |
//! | `checkpoint_every`    | durability checkpoint cadence     | off     |
//! | `journal_dir`         | write-ahead journal directory     | off     |
//!
//! The durability keys feed the FDX013 lint: a `checkpoint_every` at or
//! beyond `deadline_iterations` warns (no job can ever reach its first
//! checkpoint), and two config files naming the same `journal_dir` is
//! an Error when linted together (their journals corrupt each other's
//! recovery).
//!
//! Files fronted by the multi-tenant worker pool may size it too (any
//! one key activates the frontend lint, FDX020):
//!
//! | key                       | meaning                         | default |
//! |---------------------------|---------------------------------|---------|
//! | `workers`                 | worker-pool size                | 1       |
//! | `tenant_in_flight_quotas` | quoted CSV of per-tenant quotas | none    |
//!
//! `tenant_in_flight_quotas` is a quoted comma-separated list (the
//! parser has no array syntax), e.g. `"2, 2, 1"`. Quotas summing past
//! `workers` warn (FDX020).
//!
//! Finally, files may describe the concrete job class the deployment
//! will run, activating the solve-plan analysis (FDX015–FDX019; any one
//! key activates it, the others default):
//!
//! | key                | meaning                                  | default |
//! |--------------------|------------------------------------------|---------|
//! | `tolerance`        | convergence threshold (omit: fixed-step) | off     |
//! | `precision`        | `"f16"`/`"f32"`/`"f64"`                  | f32     |
//! | `pde`              | `"laplace"`/`"poisson"`/`"heat"`/`"wave"`| laplace |
//! | `job_iterations`   | per-job iteration cap / step count       | 1000    |
//! | `parallel_threads` | strip-parallel rung worker count         | 4       |
//! | `scale`            | data magnitude (largest boundary value)  | 1.0     |
//! | `tile_depth`       | fused sweeps per tiled-rung cache pass   | 1 (off) |
//!
//! A `tile_depth` above 1 arms the temporal-tiling geometry lint
//! (FDX022): a halo deep enough to consume the interior is an Error,
//! and a depth that collapses the strip decomposition or exceeds the
//! per-job iteration cap warns.

use core::fmt;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::analysis::{PrecisionClass, SolvePlan};
use fdmax::config::FdmaxConfig;
use fdmax::elastic::ElasticConfig;
use fdmax::lint::{FrontendSpec, LintTarget, ServiceSpec};

/// Everything a configuration file describes: the accelerator
/// deployment and, when any service key is present, the solve-service
/// sizing in front of it.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedConfig {
    /// The accelerator deployment the analyzer verifies.
    pub target: LintTarget,
    /// The service sizing, when the file gives one.
    pub service: Option<ServiceSpec>,
    /// The multi-tenant front-end sizing, when the file gives one.
    pub frontend: Option<FrontendSpec>,
    /// The job class for the solve-plan analysis, when the file gives
    /// one.
    pub plan: Option<SolvePlan>,
}

/// A parse failure, with the 1-based line it happened on (0 for
/// file-level problems such as a lone `subarrays`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line, 0 when no single line is at fault.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn parse_usize(line: usize, key: &str, value: &str) -> Result<usize, ParseError> {
    value.parse::<usize>().map_err(|_| {
        err(
            line,
            format!("{key} expects a non-negative integer, got `{value}`"),
        )
    })
}

fn parse_f64(line: usize, key: &str, value: &str) -> Result<f64, ParseError> {
    let v = value
        .parse::<f64>()
        .map_err(|_| err(line, format!("{key} expects a number, got `{value}`")))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(err(line, format!("{key} must be positive and finite")));
    }
    Ok(v)
}

fn unquote(value: &str) -> &str {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or(v)
}

/// Parses a configuration file's contents into a lint target, dropping
/// any service sizing. Prefer [`parse_full`] when the service lint
/// (FDX011) should run too.
///
/// # Errors
///
/// Returns [`ParseError`] (with the offending line) for malformed lines,
/// unknown keys, bad values, or a `subarrays`/`width` pair with one half
/// missing.
pub fn parse(source: &str) -> Result<LintTarget, ParseError> {
    parse_full(source).map(|p| p.target)
}

/// Parses a configuration file's contents, including the optional
/// solve-service sizing.
///
/// # Errors
///
/// Returns [`ParseError`] (with the offending line) for malformed lines,
/// unknown keys, bad values, or a `subarrays`/`width` pair with one half
/// missing.
pub fn parse_full(source: &str) -> Result<ParsedConfig, ParseError> {
    let mut config = FdmaxConfig::paper_default();
    let mut rows = 1000usize;
    let mut cols = 1000usize;
    let mut method = HwUpdateMethod::Jacobi;
    let mut subarrays: Option<usize> = None;
    let mut width: Option<usize> = None;
    let mut queue_capacity: Option<usize> = None;
    let mut max_job_iterations: Option<usize> = None;
    let mut deadline_iterations: Option<u64> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut journal_dir: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut tenant_quotas: Option<Vec<usize>> = None;
    let mut tolerance: Option<f64> = None;
    let mut precision: Option<PrecisionClass> = None;
    let mut steady_state: Option<bool> = None;
    let mut job_iterations: Option<usize> = None;
    let mut parallel_threads: Option<usize> = None;
    let mut scale: Option<f64> = None;
    let mut tile_depth: Option<usize> = None;

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            if line.ends_with(']') {
                continue; // section headers are organizational only
            }
            return Err(err(lineno, "unterminated section header"));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim();
        let value = value.trim();
        if value.is_empty() {
            return Err(err(lineno, format!("{key} has no value")));
        }
        match key {
            "pe_rows" => config.pe_rows = parse_usize(lineno, key, value)?,
            "pe_cols" => config.pe_cols = parse_usize(lineno, key, value)?,
            "fifo_depth" => config.fifo_depth = parse_usize(lineno, key, value)?,
            "buffer_banks" => config.buffer_banks = parse_usize(lineno, key, value)?,
            "buffer_depth" => config.buffer_depth = parse_usize(lineno, key, value)?,
            "clock_mhz" => config.clock_hz = parse_f64(lineno, key, value)? * 1e6,
            "dram_gb_s" => config.dram_gb_s = parse_f64(lineno, key, value)?,
            "grid_rows" => rows = parse_usize(lineno, key, value)?,
            "grid_cols" => cols = parse_usize(lineno, key, value)?,
            "subarrays" => subarrays = Some(parse_usize(lineno, key, value)?),
            "width" => width = Some(parse_usize(lineno, key, value)?),
            "queue_capacity" => queue_capacity = Some(parse_usize(lineno, key, value)?),
            "max_job_iterations" => max_job_iterations = Some(parse_usize(lineno, key, value)?),
            "deadline_iterations" => {
                deadline_iterations = Some(parse_usize(lineno, key, value)? as u64);
            }
            "checkpoint_every" => {
                checkpoint_every = Some(parse_usize(lineno, key, value)? as u64);
            }
            "journal_dir" => journal_dir = Some(unquote(value).to_string()),
            "workers" => workers = Some(parse_usize(lineno, key, value)?),
            "tenant_in_flight_quotas" => {
                let mut quotas = Vec::new();
                for part in unquote(value).split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    quotas.push(parse_usize(lineno, key, part)?);
                }
                tenant_quotas = Some(quotas);
            }
            "tolerance" => tolerance = Some(parse_f64(lineno, key, value)?),
            "scale" => scale = Some(parse_f64(lineno, key, value)?),
            "job_iterations" => job_iterations = Some(parse_usize(lineno, key, value)?),
            "parallel_threads" => parallel_threads = Some(parse_usize(lineno, key, value)?),
            "tile_depth" => tile_depth = Some(parse_usize(lineno, key, value)?),
            "precision" => {
                precision = match PrecisionClass::parse(&unquote(value).to_ascii_lowercase()) {
                    Some(p) => Some(p),
                    None => {
                        return Err(err(
                            lineno,
                            format!("precision must be \"f16\", \"f32\" or \"f64\", got `{value}`"),
                        ))
                    }
                }
            }
            "pde" => {
                steady_state = match unquote(value).to_ascii_lowercase().as_str() {
                    "laplace" | "poisson" => Some(true),
                    "heat" | "wave" => Some(false),
                    other => {
                        return Err(err(
                            lineno,
                            format!(
                                "pde must be \"laplace\", \"poisson\", \"heat\" or \
                                 \"wave\", got `{other}`"
                            ),
                        ))
                    }
                }
            }
            "method" => {
                method = match unquote(value).to_ascii_lowercase().as_str() {
                    "jacobi" | "j" => HwUpdateMethod::Jacobi,
                    "hybrid" | "h" => HwUpdateMethod::Hybrid,
                    other => {
                        return Err(err(
                            lineno,
                            format!("method must be \"jacobi\" or \"hybrid\", got `{other}`"),
                        ))
                    }
                }
            }
            other => return Err(err(lineno, format!("unknown key `{other}`"))),
        }
    }

    let elastic = match (subarrays, width) {
        (Some(s), Some(w)) => Some(ElasticConfig {
            subarrays: s,
            width: w,
        }),
        (None, None) => None,
        _ => {
            return Err(err(
                0,
                "subarrays and width must be given together (or both omitted \
                 for the planner's choice)",
            ))
        }
    };

    let service = if queue_capacity.is_some()
        || max_job_iterations.is_some()
        || deadline_iterations.is_some()
        || checkpoint_every.is_some()
        || journal_dir.is_some()
    {
        Some(ServiceSpec {
            queue_capacity: queue_capacity.unwrap_or(16),
            max_job_iterations: max_job_iterations.unwrap_or(1_000),
            deadline_iterations: deadline_iterations.unwrap_or(20_000),
            checkpoint_every,
            journal_dir,
        })
    } else {
        None
    };

    let frontend = if workers.is_some() || tenant_quotas.is_some() {
        Some(FrontendSpec {
            workers: workers.unwrap_or(1),
            tenant_in_flight_quotas: tenant_quotas.unwrap_or_default(),
        })
    } else {
        None
    };

    let plan = if tolerance.is_some()
        || precision.is_some()
        || steady_state.is_some()
        || job_iterations.is_some()
        || parallel_threads.is_some()
        || scale.is_some()
        || tile_depth.is_some()
    {
        Some(SolvePlan {
            rows,
            cols,
            method,
            tolerance,
            requested_iterations: job_iterations.unwrap_or(1_000),
            precision: precision.unwrap_or(PrecisionClass::F32),
            steady_state: steady_state.unwrap_or(true),
            scale: scale.unwrap_or(1.0),
            parallel_threads: parallel_threads.unwrap_or(4),
            tile_depth: tile_depth.unwrap_or(1),
        })
    } else {
        None
    };

    Ok(ParsedConfig {
        target: LintTarget {
            config,
            elastic,
            rows,
            cols,
            method,
        },
        service,
        frontend,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_file() {
        let t = parse(
            "# the paper's design point\n\
             [accelerator]\n\
             pe_rows = 8\n\
             pe_cols = 8\n\
             fifo_depth = 64\n\
             buffer_banks = 32\n\
             buffer_depth = 32\n\
             clock_mhz = 200\n\
             dram_gb_s = 128\n\
             [deployment]\n\
             grid_rows = 512   # tall\n\
             grid_cols = 256\n\
             method = \"hybrid\"\n\
             subarrays = 2\n\
             width = 32\n",
        )
        .unwrap();
        assert_eq!(t.config, FdmaxConfig::paper_default());
        assert_eq!(t.rows, 512);
        assert_eq!(t.cols, 256);
        assert_eq!(t.method, HwUpdateMethod::Hybrid);
        assert_eq!(
            t.elastic,
            Some(ElasticConfig {
                subarrays: 2,
                width: 32
            })
        );
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let t = parse("pe_rows = 4\n").unwrap();
        assert_eq!(t.config.pe_rows, 4);
        assert_eq!(t.config.pe_cols, 8, "default");
        assert_eq!((t.rows, t.cols), (1000, 1000));
        assert_eq!(t.method, HwUpdateMethod::Jacobi);
        assert_eq!(t.elastic, None);
    }

    #[test]
    fn method_letters_accepted() {
        assert_eq!(
            parse("method = J\n").unwrap().method,
            HwUpdateMethod::Jacobi
        );
        assert_eq!(
            parse("method = \"H\"\n").unwrap().method,
            HwUpdateMethod::Hybrid
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("pe_rows = 8\nbogus_key = 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus_key"));

        let e = parse("pe_rows = eight\n").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse("pe_rows\n").unwrap_err();
        assert!(e.message.contains("key = value"));

        let e = parse("dram_gb_s = -3\n").unwrap_err();
        assert!(e.message.contains("positive"));
    }

    #[test]
    fn service_keys_activate_the_service_spec() {
        let p = parse_full(
            "[service]\n\
             queue_capacity = 32\n\
             deadline_iterations = 4000\n",
        )
        .unwrap();
        assert_eq!(
            p.service,
            Some(ServiceSpec {
                queue_capacity: 32,
                max_job_iterations: 1_000, // default fills the gap
                deadline_iterations: 4_000,
                checkpoint_every: None,
                journal_dir: None,
            })
        );

        // No service key, no service spec — and `parse` drops it anyway.
        assert_eq!(parse_full("pe_rows = 8\n").unwrap().service, None);
        let _ = parse("queue_capacity = 4\n").unwrap();
    }

    #[test]
    fn durability_keys_activate_and_fill_the_service_spec() {
        let p = parse_full(
            "[service]\n\
             checkpoint_every = 64\n\
             journal_dir = \"/var/fdmax/journal-a\"\n",
        )
        .unwrap();
        let spec = p.service.expect("durability keys activate the spec");
        assert_eq!(spec.checkpoint_every, Some(64));
        assert_eq!(spec.journal_dir.as_deref(), Some("/var/fdmax/journal-a"));
        assert_eq!(spec.queue_capacity, 16, "defaults fill the rest");

        // An unquoted path parses too.
        let p = parse_full("journal_dir = /tmp/j\n").unwrap();
        assert_eq!(p.service.unwrap().journal_dir.as_deref(), Some("/tmp/j"));
    }

    #[test]
    fn frontend_keys_activate_the_frontend_spec() {
        let p = parse_full(
            "[frontend]\n\
             workers = 4\n\
             tenant_in_flight_quotas = \"2, 2, 1\"\n",
        )
        .unwrap();
        assert_eq!(
            p.frontend,
            Some(FrontendSpec {
                workers: 4,
                tenant_in_flight_quotas: vec![2, 2, 1],
            })
        );

        // One key is enough; the rest default.
        let p = parse_full("workers = 2\n").unwrap();
        assert_eq!(
            p.frontend,
            Some(FrontendSpec {
                workers: 2,
                tenant_in_flight_quotas: Vec::new(),
            })
        );
        assert_eq!(parse_full("pe_rows = 8\n").unwrap().frontend, None);

        // Keys of the retired race policy are rejected like any typo.
        for retired in ["hedge = true\n", "entry_rung = \"krylov\"\n"] {
            let e = parse_full(retired).unwrap_err();
            assert!(e.message.contains("unknown key"), "{}", e.message);
        }
        let e = parse_full("tenant_in_flight_quotas = \"2, x\"\n").unwrap_err();
        assert!(e.message.contains("non-negative integer"));
    }

    #[test]
    fn plan_keys_activate_the_solve_plan() {
        let p = parse_full(
            "[deployment]\n\
             grid_rows = 64\n\
             grid_cols = 64\n\
             method = \"hybrid\"\n\
             [job]\n\
             tolerance = 1e-5\n\
             precision = \"f64\"\n\
             pde = \"poisson\"\n\
             job_iterations = 5000\n\
             parallel_threads = 8\n\
             scale = 2.5\n\
             tile_depth = 4\n",
        )
        .unwrap();
        let plan = p.plan.expect("plan keys activate the solve plan");
        assert_eq!((plan.rows, plan.cols), (64, 64));
        assert_eq!(plan.method, HwUpdateMethod::Hybrid);
        assert_eq!(plan.tolerance, Some(1e-5));
        assert_eq!(plan.precision, PrecisionClass::F64);
        assert!(plan.steady_state);
        assert_eq!(plan.requested_iterations, 5000);
        assert_eq!(plan.parallel_threads, 8);
        assert_eq!(plan.scale, 2.5);
        assert_eq!(plan.tile_depth, 4);

        // One key is enough; the rest default.
        let p = parse_full("tolerance = 1e-4\n").unwrap();
        let plan = p.plan.unwrap();
        assert_eq!(plan.precision, PrecisionClass::F32);
        assert!(plan.steady_state);
        assert_eq!(plan.scale, 1.0);
        assert_eq!(plan.tile_depth, 1, "tiling is off by default");

        // `tile_depth` alone activates the plan too.
        let p = parse_full("tile_depth = 8\n").unwrap();
        assert_eq!(p.plan.unwrap().tile_depth, 8);

        // No plan key, no plan.
        assert_eq!(parse_full("pe_rows = 8\n").unwrap().plan, None);

        // Transient PDEs clear steady_state; bad values are rejected.
        assert!(
            !parse_full("pde = \"heat\"\n")
                .unwrap()
                .plan
                .unwrap()
                .steady_state
        );
        assert!(parse_full("pde = \"elliptic\"\n").is_err());
        assert!(parse_full("precision = \"f128\"\n").is_err());
    }

    #[test]
    fn half_an_elastic_pair_is_rejected() {
        let e = parse("subarrays = 2\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.to_string().contains("together"));
    }
}
