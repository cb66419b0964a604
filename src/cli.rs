//! The `mcc` command line as data: one [`COMMANDS`] table naming every
//! subcommand, its operands and its flags, and the three things derived
//! from it — [`parse`] (the only place an argv is judged well-formed),
//! the typed getters on [`Args`] (the only way a handler reads a flag),
//! and the [`usage`] / [`help`] / [`reference`] renderers behind
//! `mcc help` and the README's generated block.
//!
//! The table knows names, arity and help text. What a value *means*
//! (`--mem-ceiling` is MiB, `--seed` excludes a fault plan) stays in the
//! handlers in `src/bin/mcc.rs`.

use std::fmt;
use std::str::FromStr;

/// One flag a command accepts.
pub struct Flag {
    /// The literal as typed, dashes included.
    pub name: &'static str,
    /// The value's metavariable, `None` for a switch. A metavariable of
    /// the form `a|b|c` lists the accepted values ([`Args::one_of`]).
    pub value: Option<&'static str>,
    /// One line for `mcc help`.
    pub help: &'static str,
    /// A flag of the same command this one is meaningless without.
    pub needs: Option<&'static str>,
}

/// A switch: present or absent.
const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, value: None, help, needs: None }
}

/// A flag followed by one value.
const fn opt(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value: Some(value), help, needs: None }
}

impl Flag {
    const fn needs(mut self, other: &'static str) -> Flag {
        self.needs = Some(other);
        self
    }

    /// `--name VALUE`, as the synopsis and the help rows print it.
    fn label(&self) -> String {
        self.value.map_or(self.name.to_string(), |v| format!("{} {v}", self.name))
    }
}

/// One `mcc` subcommand.
pub struct Command {
    /// The subcommand word.
    pub name: &'static str,
    /// Positional operands in order: `<required>` ones, then `[optional]`.
    pub operands: &'static [&'static str],
    /// What the command does, for `mcc help`.
    pub about: &'static str,
    /// Every flag the command accepts; anything else is a usage error.
    pub flags: &'static [Flag],
}

impl Command {
    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }
}

const PROFILE: Flag = opt("--profile", "FILE", "write spans and metrics as a Chrome trace file");
const FORMAT: Flag = opt("--format", "text|json", "json prints the stable report document");
const ADDR: Flag = opt("--addr", "ADDR", "the daemon's address (default 127.0.0.1:9477)");
const FIXED: Flag = switch("--fixed", "run the corrected variant of the case");
const PROCS: Flag = opt("--procs", "N", "override the case's rank count");

/// Flags a command refuses with a pointed message instead of "unknown
/// flag": `(command, flag, why)`, `{flag}` standing for the name.
const REFUSED: &[(&str, &str, &str)] = &[
    ("check", "--seed", SEED_IS_A_SIMULATOR_KNOB),
    ("check", "--seed-sweep", SEED_IS_A_SIMULATOR_KNOB),
];

const SEED_IS_A_SIMULATOR_KNOB: &str =
    "`{flag}` is a simulator knob: `mcc check` analyzes a recorded trace and cannot re-run it \
     under a different schedule. Re-record the trace with `mcc demo <case> {flag} N --trace-out \
     DIR`, or enumerate delivery schedules systematically with `mcc explore <case>`.";

/// Every `mcc` subcommand. `mcc help` prints this table; the README
/// block between the `mcc-cli` markers is [`reference`] verbatim.
pub static COMMANDS: &[Command] = &[
    Command {
        name: "check",
        operands: &["<trace-dir>"],
        about: "Analyze a trace directory written by the Profiler and print the findings.",
        flags: &[
            FORMAT,
            switch("--timings", "add the per-phase `timings` object to the JSON report"),
            PROFILE,
            switch("--streaming", "check online, region by region, in bounded memory"),
            switch("--tolerate-truncation", "accept torn lines and missing ranks; degraded check"),
        ],
    },
    Command {
        name: "demo",
        operands: &["<case>"],
        about: "Run a built-in bug case (`mcc list`) under the Profiler and check it. The\n\
                recovery-gallery cases ship their own fault plan.",
        flags: &[
            FIXED,
            PROCS,
            opt("--trace-out", "DIR", "also write the recorded trace to DIR"),
            opt("--abort", "R:N", "fail rank R after N events"),
            opt("--hang", "R:N", "hang rank R at its Nth synchronization call"),
            opt(
                "--recover-policy",
                "abort|notify|checkpoint",
                "--abort degrades (abort, default) or is survivable",
            ),
            opt("--seed", "N", "one run under seeded adversarial delivery"),
            opt("--seed-sweep", "N", "try N consecutive seeds; stop at the first dirty one"),
            opt("--submit", "ADDR", "ship the events to a daemon; print its verdict"),
            PROFILE,
        ],
    },
    Command {
        name: "explore",
        operands: &["<case>"],
        about: "Enumerate the case's RMA delivery schedules with partial-order reduction:\n\
                only decisions the happens-before analysis marks as racing are flipped, and\n\
                trace-equivalent schedules are deduplicated. Exits 1 when any schedule has\n\
                errors, 7 when the budget ran out first, 0 on clean full coverage.",
        flags: &[
            FIXED,
            PROCS,
            opt("--max-schedules", "N", "schedule budget (default 256)"),
            opt("--max-depth", "N", "decisions flipped per schedule (default 64)"),
            opt("--threads", "N", "shard the search (default 1; same report at every N)"),
            FORMAT,
            opt("--replay", "WITNESS", "re-run one decision vector (`ec/-`: e/c per op, per rank)"),
        ],
    },
    Command {
        name: "serve",
        operands: &[],
        about: "Run the checker daemon: each connection is a session checked online in\n\
                bounded memory. Governance (the last seven flags) is off by default.",
        flags: &[
            opt("--listen", "ADDR", "TCP address (default 127.0.0.1:9477) or a /socket/path"),
            opt("--max-buffer", "N", "buffered events per session before eviction degrades it"),
            opt("--soft-watermark", "N", "buffered events per session before backpressure"),
            opt("--idle-timeout-ms", "N", "salvage a silent session after N ms"),
            opt("--write-timeout-ms", "N", "give up on a peer that does not read for N ms"),
            opt("--tick-ms", "N", "janitor period"),
            opt("--ack-interval", "N", "acknowledge every N events"),
            opt("--journal-dir", "DIR", "write-ahead journals for durable sessions"),
            opt("--fsync", "never|ack|always", "journal sync policy (default ack)"),
            opt("--resume-grace-ms", "N", "how long a parked durable session waits for Resume"),
            switch("--recover", "rebuild parked sessions from the journals at startup")
                .needs("--journal-dir"),
            switch("--no-binary", "JSON-only daemon: do not announce the `binary` capability"),
            switch("--no-tracectx", "do not announce the `tracectx` capability"),
            PROFILE,
            opt("--max-sessions", "N", "cap on held sessions; beyond it Hello draws a typed Busy"),
            opt(
                "--mem-ceiling",
                "MIB",
                "memory ceiling: refuse at 3/4, shed largest-first at 9/10",
            ),
            opt("--quota-events", "N", "events one session may send before eviction"),
            opt("--quota-rate", "N", "events/s one session is paced to (never evicted)"),
            opt("--quota-bytes", "N", "buffered bytes one session may hold before eviction"),
            opt("--deadline-s", "N", "wall-clock lifetime of a session"),
            opt("--busy-retry-ms", "N", "retry hint carried in every Busy (default 500)"),
        ],
    },
    Command {
        name: "submit",
        operands: &["<trace-dir>"],
        about: "Stream a recorded trace to a running daemon and print the session report.\n\
                Exit codes as for `mcc check`.",
        flags: &[
            ADDR,
            opt("--max-buffer", "N", "buffered-event cap to ask the daemon for"),
            FORMAT,
            switch("--durable", "resumable session: retry through drops and daemon restarts"),
            opt("--retries", "N", "attempts before giving up (default 8)").needs("--durable"),
            opt("--backoff-ms", "N", "first backoff, doubling with jitter (default 25)")
                .needs("--durable"),
            opt("--throttle-ms", "N", "pace the stream one frame per N ms (chaos/CI use)")
                .needs("--durable"),
            opt("--codec", "json|binary", "event encoding (default binary, if the daemon has it)"),
            opt("--batch-size", "N", "events per Batch frame (default 256; 1 disables batching)"),
            PROFILE,
        ],
    },
    Command {
        name: "stats",
        operands: &[],
        about: "Print a running daemon's supervisor state as JSON.",
        flags: &[ADDR, switch("--metrics", "print the Prometheus text exposition instead")],
    },
    Command {
        name: "top",
        operands: &[],
        about: "Live fleet view of a running daemon: sessions by state, events/s, memory\n\
                pressure, admission, and hot-path latency p50/p99.",
        flags: &[
            ADDR,
            opt("--interval-ms", "N", "refresh period (default 1000)"),
            switch("--once", "print one snapshot and exit"),
        ],
    },
    Command {
        name: "trace-merge",
        operands: &["<client.json>", "<daemon.json>"],
        about: "Merge a client `--profile` trace with the daemon's into one document, daemon\n\
                spans re-parented under the client span that sent their TraceCtx frame.",
        flags: &[
            opt("-o", "FILE", "where to write the merged trace (default merged.json)"),
            opt("--out", "FILE", "same as -o"),
        ],
    },
    Command {
        name: "overhead",
        operands: &[],
        about: "Table-3-style profiling-overhead study over the bug gallery, then a bound on\n\
                this build's disabled instrumentation (exits 1 above 5% of analysis time).",
        flags: &[opt("--reps", "N", "best of N repetitions per mode (default 3)")],
    },
    Command {
        name: "table1",
        operands: &[],
        about: "Print the RMA compatibility matrix (paper Table I).",
        flags: &[],
    },
    Command { name: "list", operands: &[], about: "List the built-in demo cases.", flags: &[] },
    Command {
        name: "help",
        operands: &["[command]"],
        about: "Print this reference, or one command's section (also `mcc <command> --help`).",
        flags: &[],
    },
];

/// Looks a subcommand up by name.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// An ill-formed command line; displays as what is wrong, naming the
/// flag, above the command's usage. `mcc` prints it and exits 2.
pub struct UsageError {
    what: String,
    cmd: &'static Command,
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\nusage: {}", self.what, usage(self.cmd).replace('\n', "\n       "))
    }
}

impl From<UsageError> for String {
    fn from(e: UsageError) -> String {
        e.to_string()
    }
}

/// A command's parsed arguments. Every getter names a flag of the
/// command's table; asking for any other name is a bug in the handler
/// and panics.
pub struct Args<'a> {
    cmd: &'static Command,
    help: bool,
    operands: Vec<&'a str>,
    given: Vec<(&'static Flag, Option<&'a str>)>,
}

/// Judges `argv` (the words after the subcommand) against `cmd`'s row.
/// Rejected: an unknown or repeated flag, a value flag with no value or
/// followed by another `--flag`, a missing or surplus operand, and a
/// flag given without the flag it [`needs`](Flag::needs). `--help` / `-h`
/// anywhere short-circuits to [`Args::wants_help`].
pub fn parse<'a>(cmd: &'static Command, argv: &'a [String]) -> Result<Args<'a>, UsageError> {
    let bad = |what: String| UsageError { what, cmd };
    let mut args = Args { cmd, help: false, operands: Vec::new(), given: Vec::new() };
    let mut words = argv.iter().map(String::as_str);
    while let Some(word) = words.next() {
        if word == "--help" || word == "-h" {
            args.help = true;
            return Ok(args);
        }
        if !word.starts_with('-') {
            args.operands.push(word);
            continue;
        }
        let Some(flag) = cmd.flag(word) else {
            let refused = REFUSED.iter().find(|(c, f, _)| *c == cmd.name && *f == word);
            return Err(bad(match refused {
                Some((_, _, why)) => why.replace("{flag}", word),
                None => format!("unknown flag `{word}` for `mcc {}`", cmd.name),
            }));
        };
        if args.given.iter().any(|(f, _)| f.name == flag.name) {
            return Err(bad(format!("`{word}` given more than once")));
        }
        let value = match flag.value {
            None => None,
            Some(metavar) => match words.next() {
                Some(v) if !v.starts_with("--") => Some(v),
                _ => return Err(bad(format!("`{word}` expects a value ({metavar})"))),
            },
        };
        args.given.push((flag, value));
    }
    if let Some(missing) = cmd.operands.get(args.operands.len()).filter(|o| o.starts_with('<')) {
        return Err(bad(format!("missing {missing}")));
    }
    if let Some(surplus) = args.operands.get(cmd.operands.len()) {
        return Err(bad(format!("unexpected argument `{surplus}`")));
    }
    for (flag, _) in &args.given {
        if let Some(other) = flag.needs.filter(|o| !args.given.iter().any(|(f, _)| f.name == *o)) {
            return Err(bad(format!("`{}` requires `{other}`", flag.name)));
        }
    }
    Ok(args)
}

impl<'a> Args<'a> {
    /// `--help` or `-h` was given: print [`help`] and exit 0 instead of
    /// running (nothing else about the argv was checked).
    pub fn wants_help(&self) -> bool {
        self.help
    }

    /// The operands, in order; [`parse`] checked every `<required>` one
    /// is there.
    pub fn operands(&self) -> &[&'a str] {
        &self.operands
    }

    /// `Some(value)` when the flag was given. Panics when the command's
    /// table has no such flag of that arity.
    fn lookup(&self, name: &str, takes_value: bool) -> Option<Option<&'a str>> {
        let declared = self.cmd.flag(name).is_some_and(|f| f.value.is_some() == takes_value);
        assert!(
            declared,
            "`mcc {}` reads `{name}`, which its table does not declare",
            self.cmd.name
        );
        self.given.iter().find(|(f, _)| f.name == name).map(|(_, v)| *v)
    }

    /// Whether a switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.lookup(name, false).is_some()
    }

    /// A value flag's value, as typed.
    pub fn str(&self, name: &str) -> Option<&'a str> {
        self.lookup(name, true).flatten()
    }

    /// A value flag run through `read`; a `None` from it is a usage error
    /// naming the flag, what it `expects` and what was typed.
    fn read<T>(
        &self,
        name: &str,
        expects: &str,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<Option<T>, UsageError> {
        let Some(v) = self.str(name) else { return Ok(None) };
        let what = format!("`{name}` expects {expects}, got `{v}`");
        read(v).map(Some).ok_or(UsageError { what, cmd: self.cmd })
    }

    /// A value flag parsed as an unsigned integer.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        self.read(name, "an unsigned integer", |v| v.parse().ok())
    }

    /// A value flag parsed as an integer of at least 1.
    pub fn positive<T: FromStr + PartialOrd + From<u8>>(
        &self,
        name: &str,
    ) -> Result<Option<T>, UsageError> {
        self.read(name, "a positive integer", |v| v.parse().ok().filter(|n| *n >= T::from(1)))
    }

    /// A value flag whose metavariable enumerates its values (`a|b|c`).
    pub fn one_of(&self, name: &str) -> Result<Option<&'a str>, UsageError> {
        let choices = self.metavar(name);
        self.read(name, choices, |v| choices.split('|').any(|c| c == v).then_some(v))
    }

    /// A value flag in a shape of the handler's own (`R:N`); the error
    /// quotes the metavariable.
    pub fn parsed<T>(
        &self,
        name: &str,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<Option<T>, UsageError> {
        self.read(name, self.metavar(name), read)
    }

    /// A usage error the handler found: `what` above the command's
    /// usage, as [`parse`] words its own.
    pub fn refuse(&self, what: impl Into<String>) -> UsageError {
        UsageError { what: what.into(), cmd: self.cmd }
    }

    fn metavar(&self, name: &str) -> &'static str {
        self.cmd.flag(name).and_then(|f| f.value).unwrap_or_default()
    }
}

/// The command's synopsis: `mcc <name> <operands> [--flag VALUE]…`,
/// wrapped at 78 columns.
pub fn usage(cmd: &Command) -> String {
    let mut out = format!("mcc {}", cmd.name);
    let indent = out.len();
    let mut col = indent;
    let words = cmd.operands.iter().map(|o| o.to_string());
    for word in words.chain(cmd.flags.iter().map(|f| format!("[{}]", f.label()))) {
        if col + 1 + word.len() > 78 {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            col = indent;
        }
        out.push(' ');
        out.push_str(&word);
        col += 1 + word.len();
    }
    out
}

/// What `mcc` prints (and exits 2) when no subcommand matches: the
/// command names and the exit-code contract.
pub fn synopsis() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    format!(
        "usage: mcc <{}> ...  (see `mcc help`)\nexit codes:\n{}",
        names.join("|"),
        crate::EXIT_CODE_TABLE
    )
}

/// The command's section of `mcc help`: synopsis, description, one row
/// per flag.
pub fn help(cmd: &Command) -> String {
    let mut out = usage(cmd);
    for line in cmd.about.lines() {
        out.push_str("\n    ");
        out.push_str(line);
    }
    let width = cmd.flags.iter().map(|f| f.label().len()).max().unwrap_or(0);
    for f in cmd.flags {
        out.push_str(&format!("\n      {:width$}  {}", f.label(), f.help));
    }
    out.push('\n');
    out
}

/// All of `mcc help`: every command's section, then the exit-code
/// contract. The README quotes this verbatim.
pub fn reference() -> String {
    let mut out = String::from(
        "mcc — the MC-Checker command line (`mcc help <command>` prints one section)\n\n",
    );
    for cmd in COMMANDS {
        out.push_str(&help(cmd));
        out.push('\n');
    }
    out.push_str("Exit codes:\n");
    out.push_str(crate::EXIT_CODE_TABLE);
    out.push('\n');
    out
}
