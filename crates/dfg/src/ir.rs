//! `dfg.ir`: the dataflow-graph intermediate file.
//!
//! Every compile flow in the paper (Figs. 5–7) runs a *dfg extractor* over
//! `top.c` to produce `dfg.ir`, which the pre-linker/loader (`pld`) uses to
//! generate `driver.c` — the code that loads binaries and configures the
//! linking network. [`extract`] is that extractor; [`DfgIr`] is the file.

use std::fmt;

use crate::graph::Graph;
use crate::target::Target;

/// One operator record in the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrOperator {
    /// Instance name.
    pub name: String,
    /// Mapping target (flow selection + optional page pin).
    pub target: Target,
    /// Number of input stream ports.
    pub num_inputs: u32,
    /// Number of output stream ports.
    pub num_outputs: u32,
}

/// One stream link record in the IR.
///
/// Endpoints are `(operator_index, port_index)`; external DMA endpoints use
/// [`IrLink::HOST`] as the operator index, mirroring how the paper's linking
/// graph treats the DMA engine as just another network client (Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrLink {
    /// Link name.
    pub name: String,
    /// Producer `(operator, output_port_index)`.
    pub from: (u32, u32),
    /// Consumer `(operator, input_port_index)`.
    pub to: (u32, u32),
    /// Payload width in 32-bit words.
    pub words: u32,
}

impl IrLink {
    /// Operator index standing for the host DMA engine.
    pub const HOST: u32 = u32::MAX;
}

/// The dataflow-graph intermediate file (`dfg.ir`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfgIr {
    /// Application name.
    pub app: String,
    /// Operator records, indexed by the link endpoints.
    pub operators: Vec<IrOperator>,
    /// Stream link records, internal and DMA-facing.
    pub links: Vec<IrLink>,
}

impl DfgIr {
    /// Links whose producer or consumer is the host DMA engine.
    pub fn dma_links(&self) -> impl Iterator<Item = &IrLink> {
        self.links
            .iter()
            .filter(|l| l.from.0 == IrLink::HOST || l.to.0 == IrLink::HOST)
    }

    /// Links connecting two mapped operators.
    pub fn internal_links(&self) -> impl Iterator<Item = &IrLink> {
        self.links
            .iter()
            .filter(|l| l.from.0 != IrLink::HOST && l.to.0 != IrLink::HOST)
    }
}

impl fmt::Display for DfgIr {
    /// Renders the textual `.ir` format (stable, diffable, documented in
    /// DESIGN.md).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; dfg.ir for {}", self.app)?;
        for (i, op) in self.operators.iter().enumerate() {
            writeln!(
                f,
                "op {i} {} target={} inputs={} outputs={}",
                op.name,
                match op.target {
                    Target::Hw { .. } => "HW",
                    Target::Riscv { .. } => "RISCV",
                },
                op.num_inputs,
                op.num_outputs,
            )?;
            if let Some(p) = op.target.page() {
                writeln!(f, "  page {p}")?;
            }
        }
        for l in &self.links {
            let end = |e: (u32, u32)| -> String {
                if e.0 == IrLink::HOST {
                    format!("host.{}", e.1)
                } else {
                    format!("{}.{}", e.0, e.1)
                }
            };
            writeln!(
                f,
                "link {} {} -> {} words={}",
                l.name,
                end(l.from),
                end(l.to),
                l.words
            )?;
        }
        Ok(())
    }
}

/// Error parsing a textual `dfg.ir` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIrError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseIrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dfg.ir line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseIrError {}

impl DfgIr {
    /// Parses the textual `.ir` format produced by [`DfgIr`]'s `Display`
    /// impl — the on-disk interchange the pre-linker/loader consumes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseIrError`] with the offending line on malformed input.
    pub fn parse(text: &str) -> Result<DfgIr, ParseIrError> {
        let err = |line: usize, message: &str| ParseIrError {
            line,
            message: message.into(),
        };
        let mut app = String::new();
        let mut operators: Vec<IrOperator> = Vec::new();
        let mut links = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("; dfg.ir for ") {
                app = rest.to_string();
                continue;
            }
            if line.starts_with(';') {
                continue;
            }
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("op") => {
                    let _index: usize = toks
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(line_no, "op record missing index"))?;
                    let name = toks
                        .next()
                        .ok_or_else(|| err(line_no, "op record missing name"))?
                        .to_string();
                    let mut target = None;
                    let mut num_inputs = 0;
                    let mut num_outputs = 0;
                    for t in toks {
                        if let Some(v) = t.strip_prefix("target=") {
                            target = Some(match v {
                                "HW" => Target::hw_auto(),
                                "RISCV" => Target::riscv_auto(),
                                other => {
                                    return Err(err(line_no, &format!("unknown target {other}")))
                                }
                            });
                        } else if let Some(v) = t.strip_prefix("inputs=") {
                            num_inputs = v.parse().map_err(|_| err(line_no, "bad inputs count"))?;
                        } else if let Some(v) = t.strip_prefix("outputs=") {
                            num_outputs =
                                v.parse().map_err(|_| err(line_no, "bad outputs count"))?;
                        } else {
                            return Err(err(line_no, &format!("unknown op token {t}")));
                        }
                    }
                    operators.push(IrOperator {
                        name,
                        target: target.ok_or_else(|| err(line_no, "op record missing target"))?,
                        num_inputs,
                        num_outputs,
                    });
                }
                Some("page") => {
                    let p: u32 = toks
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(line_no, "page record missing number"))?;
                    let op = operators
                        .last_mut()
                        .ok_or_else(|| err(line_no, "page record before any op"))?;
                    op.target = op.target.with_page(p);
                }
                Some("link") => {
                    let name = toks
                        .next()
                        .ok_or_else(|| err(line_no, "link record missing name"))?
                        .to_string();
                    let parse_end = |t: &str| -> Option<(u32, u32)> {
                        let (a, b) = t.split_once('.')?;
                        let port: u32 = b.parse().ok()?;
                        if a == "host" {
                            Some((IrLink::HOST, port))
                        } else {
                            Some((a.parse().ok()?, port))
                        }
                    };
                    let from = toks
                        .next()
                        .and_then(parse_end)
                        .ok_or_else(|| err(line_no, "link record missing source"))?;
                    if toks.next() != Some("->") {
                        return Err(err(line_no, "link record missing ->"));
                    }
                    let to = toks
                        .next()
                        .and_then(parse_end)
                        .ok_or_else(|| err(line_no, "link record missing destination"))?;
                    let words = toks
                        .next()
                        .and_then(|t| t.strip_prefix("words="))
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(line_no, "link record missing words="))?;
                    links.push(IrLink {
                        name,
                        from,
                        to,
                        words,
                    });
                }
                Some(other) => return Err(err(line_no, &format!("unknown record {other}"))),
                None => {}
            }
        }
        Ok(DfgIr {
            app,
            operators,
            links,
        })
    }
}

/// Extracts the IR from a validated graph (the paper's *dfg extractor*).
pub fn extract(graph: &Graph) -> DfgIr {
    let operators = graph
        .operators
        .iter()
        .map(|o| IrOperator {
            name: o.name.clone(),
            target: o.target,
            num_inputs: o.kernel.inputs.len() as u32,
            num_outputs: o.kernel.outputs.len() as u32,
        })
        .collect();

    let port_index = |op: crate::graph::OpId, port: &str, output: bool| -> u32 {
        let k = &graph.operators[op.0].kernel;
        let list = if output { &k.outputs } else { &k.inputs };
        list.iter()
            .position(|p| p.name == port)
            .expect("validated graph has known ports") as u32
    };

    let mut links = Vec::new();
    for (i, p) in graph.ext_inputs.iter().enumerate() {
        links.push(IrLink {
            name: p.name.clone(),
            from: (IrLink::HOST, i as u32),
            to: (p.op.0 as u32, port_index(p.op, &p.port, false)),
            words: p.elem.words(),
        });
    }
    for e in &graph.edges {
        links.push(IrLink {
            name: e.name.clone(),
            from: (e.from.0 .0 as u32, port_index(e.from.0, &e.from.1, true)),
            to: (e.to.0 .0 as u32, port_index(e.to.0, &e.to.1, false)),
            words: e.elem.words(),
        });
    }
    for (i, p) in graph.ext_outputs.iter().enumerate() {
        links.push(IrLink {
            name: p.name.clone(),
            from: (p.op.0 as u32, port_index(p.op, &p.port, true)),
            to: (IrLink::HOST, i as u32),
            words: p.elem.words(),
        });
    }

    DfgIr {
        app: graph.name.clone(),
        operators,
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

    fn sample() -> Graph {
        let pass = KernelBuilder::new("pass")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(64))
            .local("x", Scalar::uint(32))
            .body([
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").cast(Scalar::uint(64))),
            ])
            .build()
            .unwrap();
        let sink = KernelBuilder::new("sink")
            .input("in", Scalar::uint(64))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(64))
            .body([
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").cast(Scalar::uint(32))),
            ])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new("app");
        let a = b.add("a", pass, crate::Target::hw(2));
        let c = b.add("c", sink, crate::Target::riscv(5));
        b.ext_input("Input_1", a, "in");
        b.connect("mid", a, "out", c, "in");
        b.ext_output("Output_1", c, "out");
        b.build().unwrap()
    }

    #[test]
    fn extract_records_everything() {
        let ir = extract(&sample());
        assert_eq!(ir.operators.len(), 2);
        assert_eq!(ir.links.len(), 3);
        assert_eq!(ir.dma_links().count(), 2);
        assert_eq!(ir.internal_links().count(), 1);
        let mid = ir.internal_links().next().unwrap();
        assert_eq!(mid.words, 2); // 64-bit link = 2 words
        assert_eq!(mid.from, (0, 0));
        assert_eq!(mid.to, (1, 0));
    }

    #[test]
    fn textual_format_roundtrips() {
        let ir = extract(&sample());
        let parsed = DfgIr::parse(&ir.to_string()).unwrap();
        assert_eq!(parsed, ir);
    }

    #[test]
    fn parse_reports_offending_line() {
        let err = DfgIr::parse("; dfg.ir for x\nop 0 a target=GPU inputs=1 outputs=1").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("GPU"));
        let err = DfgIr::parse("link l host.0 0.0 words=1").unwrap_err();
        assert!(err.message.contains("->"));
        assert!(DfgIr::parse("").unwrap().operators.is_empty());
    }

    #[test]
    fn textual_format_is_stable() {
        let text = extract(&sample()).to_string();
        assert!(text.contains("op 0 a target=HW inputs=1 outputs=1"));
        assert!(text.contains("  page 2"));
        assert!(text.contains("op 1 c target=RISCV"));
        assert!(text.contains("link mid 0.0 -> 1.0 words=2"));
        assert!(text.contains("link Input_1 host.0 -> 0.0 words=1"));
        assert!(text.contains("link Output_1 1.0 -> host.0 words=1"));
    }
}
