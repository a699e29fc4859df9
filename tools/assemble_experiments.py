#!/usr/bin/env python3
"""Assemble EXPERIMENTS.md result sections from bench_output.txt.

Splits the bench log on '=== RUNNING <name> ===' markers and emplaces each
bench's output (verbatim, fenced) under a hand-written commentary section
comparing it against the paper. Run after `for b in build/bench/*; do $b;
done | tee bench_output.txt`.

Below the `<!-- RESULTS -->` marker, a section whose `## ` heading a bench
of the log produces is rewritten in place, keeping any notes written after
its log block. Every other section (hand-written ones without a log
block, and those of benches the log did not run) stays as it is, where it
is; a bench with no section yet is appended at the end.

The benches parallelize their sweeps across cores (NETRS_JOBS=N to pin the
worker count, 1 for serial); results are bit-identical at any jobs value,
so regenerating this file with parallelism changes nothing but wall-clock.
"""
import re
import sys

COMMENTARY = {
    "fig4_clients": """## Figure 4 — impact of the number of clients

**Paper:** CliRS mean *and* tail grow with the client count (more
independent RSNodes -> staler local information + herd behavior), while
NetRS-ToR and NetRS-ILP stay flat; NetRS-ILP cuts the mean by 32.0-48.4 %
and the 99th by 34.2-55.8 % vs. CliRS; NetRS-ILP beats NetRS-ToR by ~31 %
mean / ~32 % p99 on average. CliRS-R95's latency explodes at this 90 %
utilization (bars exceed the plot in the paper).

**Measured:** the same four signatures hold — CliRS grows monotonically
with clients on every panel while both NetRS schemes are flat;
NetRS-ILP < NetRS-ToR < CliRS << CliRS-R95 throughout; the NetRS-ILP plan
consolidates to ~6-7 RSNodes (the paper's example RSP is 7: "6 RSNodes on
aggregation switches and 1 on a core switch"). Relative reductions of
NetRS-ILP vs CliRS land in the paper's band (mean ~25-50 %, p99 ~35-75 %
across the sweep). The herdCV diagnostic shows the claimed mechanism
directly: ~1.0-1.1 for the 100-700 client RSNodes of CliRS, ~0.9-1.0 for
the 128 ToR RSNodes, ~0.7 for the ~7 ILP RSNodes.
""",
    "fig5_skew": """## Figure 5 — impact of the demand skewness

**Paper:** NetRS still wins at every skew, but its *relative* reduction
shrinks as skew rises (e.g. mean reduction 46.4 % with no skew -> 39.2 % at
70 % skew -> 32.2 % at 95 % skew): skewed demand concentrates CliRS's
selection into the few high-demand clients, effectively reducing the
number of client RSNodes, while NetRS gains nothing because high-demand
clients are scattered across the network.

**Measured:** same ordering at every skew (NetRS-ILP best, CliRS-R95
worst) and the same narrowing trend of NetRS-ILP's advantage vs CliRS as
skew rises; CliRS's own latency improves slightly toward 95 % skew exactly
as the paper explains.
""",
    "fig6_utilization": """## Figure 6 — impact of the system utilization

**Paper:** (i) latency rises with utilization for every scheme; (ii)
NetRS-ILP's reduction is largest in the high-utilization region (bad
selections hurt more under contention): mean reduction 12.4-46.4 %, p99
7.4-52.8 % vs CliRS; (iii) redundant requests only pay off at *low*
utilization, where the extra load is negligible — CliRS-R95 has the best
tail at 30 % and collapses at high utilization.

**Measured:** all three observations reproduce, including the subtle one:
CliRS-R95 posts the best 99th/99.9th percentiles of all schemes at 30 %
utilization, is already mixed at 50-70 %, and is catastrophically worst at
90 %. NetRS-ILP's advantage over both CliRS and NetRS-ToR widens
monotonically with utilization.
""",
    "fig7_service_time": """## Figure 7 — impact of the service time

**Paper:** all schemes get faster as tkv shrinks; NetRS-ILP's *mean*
advantage over CliRS narrows at small tkv because the fixed overheads —
extra hops to the RSNode and waiting in the accelerator — stop being
negligible next to a 0.1-1 ms service time; the *tail* advantage persists
(tails are orders of magnitude above the service time), and NetRS-ToR
shows no such narrowing (its RSNodes sit on the default path).

**Measured:** same shape: latencies scale down with tkv for every scheme;
NetRS-ILP's mean reduction vs CliRS narrows toward 0.1 ms while its p99
reduction stays large; NetRS-ToR tracks NetRS-ILP closely at the smallest
tkv (the consolidation dividend cannot pay for its hop overhead there).
Note the RSNode counts in the diagnostics: at fixed 90 % utilization the
aggregate rate is A = 0.9*Ns*Np/tkv, so the capacity constraint
(Tmax = U*c/t_accel) forces the ILP from ~7 RSNodes at 4 ms up to dozens
at 0.1 ms — Constraint 2 in action.
""",
    "ablation_placement": """## Ablation A1 — placement & traffic-group granularity (extension)

Holding everything else fixed, NetRS-ILP is run at rack-level, sub-rack
(4-host) and host-level traffic groups against the NetRS-ToR baseline.
All granularities consolidate to a handful of RSNodes and beat ToR
placement; finer groups enlarge the instance (1024 host-level groups trip
the solver's size guard and fall back to the greedy consolidation path,
per DESIGN.md) without materially changing latency — consistent with the
paper's argument that granularity mainly trades RSP optimization effort
against flexibility (§III-A), not steady-state latency.
""",
    "ablation_accelerator": """## Ablation A2 — accelerator capacity (extension)

Sweeping the accelerator's per-request service time (and a multi-core
variant): slower accelerators shrink Tmax = U*c/t, so the placement is
forced to spread across more RSNodes (7 at 5 us -> 9 at 20 us -> 13 at
50 us in the diagnostics; giving the 20 us accelerator 4 cores restores
the 7-RSNode plan). End-to-end latency stays nearly flat across the sweep
— Constraint 2 working as designed: the controller buys capacity with
extra RSNodes instead of letting selector queues build, trading away a
little of the consolidation (herdCV creeps from 0.63 up to 0.71).
""",
    "ablation_algorithms": """## Ablation A3 — replica-selection algorithms (extension)

The paper claims NetRS supports and improves *diverse* algorithms
(§IV-C). Running six algorithms under CliRS vs NetRS-ILP shows the
framework effect is not C3-specific — with two instructive exceptions:

- C3 (with or without rate control), least-outstanding and
  power-of-two-choices all improve sharply when moved from 500 client
  RSNodes to ~7 in-network RSNodes (least-outstanding improves the most:
  its outstanding-request signal is nearly useless at 1/500th granularity
  but becomes an accurate queue proxy once one RSNode sees 1/7th of all
  traffic).
- `random` is the control: it consumes no local information, so
  consolidation cannot help it; both deployments sit near saturation and
  the residual difference is path overhead plus saturation noise.
- `ewma-latency` (Dynamic-Snitch-style latency-only ranking) gets *worse*
  under NetRS: it has no queue term and no concurrency compensation, so a
  few high-rate RSNodes chasing the currently-fastest server herd far
  more violently than 500 small clients did. This sharpens the paper's
  herd-behavior argument: consolidation amplifies whatever feedback the
  algorithm uses — fewer RSNodes only help algorithms whose signal
  saturates (queue sizes), not ones that chase a single optimum.
""",
    "ablation_hop_budget": """## Ablation A4 — extra-hop budget E (extension)

E = 0 admits only zero-cost placements, and the plan disperses to ~68
RSNodes (not the full 128: groups whose rack happens to contain no server
have zero intra-rack traffic, making their pod aggregation switch a
zero-cost placement — Eq. (7)'s cost is traffic-weighted). Growing E lets
the ILP consolidate — 15 RSNodes at 5 %, 7 at the paper's 20 %, down to 2
at 40 %+ — at the price of detour forwards (visible in fwd/req and
KB/req). Mean latency improves ~15-20 % from E = 0 and saturates by
E = 40 %; the tails are flat within noise. Constraint 3 is thus the knob
that trades network overhead for consolidation, and the paper's 20 %
default already captures most of the benefit.
""",
    "ablation_redundancy": """## Ablation A5 — redundancy & cross-server cancellation (extension)

CliRS-R95C augments R95 with the cancellation half of "The Tail at Scale"
(the paper's ref. [9]): when the first response arrives, the losing copy
is cancelled and a server deletes it from its queue. Measured: at low
utilization both R95 variants improve the tail over plain CliRS; as
utilization grows, plain R95 collapses (its duplicates overload the
skewed cluster, the paper's observation iii) while R95C keeps beating
even plain CliRS at 90 % utilization — reclaiming queued duplicates
before they consume service time is enough to make redundancy safe
across the whole sweep. This answers the natural follow-up question the
paper's observation (iii) raises: the redundancy trade-off is largely an
artifact of *uncancelled* duplicates.
""",
    "ablation_shared_accel": """## Ablation A6 — shared accelerators (extension)

§III-B: "we could cut the network cost of NetRS by connecting one
accelerator to multiple switches." Here all k/2 core switches of a core
group share one accelerator (pooled cores, queue and selector), and the
placement respects the pooled set-J capacity constraint (which sends the
solver down its share-aware greedy path). Measured: the shared wiring is
at least as good as dedicated accelerators — the tail actually improves,
because the pooled *selector* aggregates the traffic of a whole core
group and so has fresher local information (the same mechanism that makes
NetRS beat CliRS, taken one step further). At paper-default load the
hardware saving is free, which is why the paper proposes it.
""",
    "ablation_transition": """## Ablation A7 — RSP deployment transient (extension)

§II warns that "the deployment of a new RSP may lead to a temporary
latency increase" because newly activated RSNodes must rebuild their view
of the system from scratch, and argues the controller therefore should
not update the RSP frequently. The bench runs the paper-default NetRS-ILP
cell (C3, 90 % utilization, seed 17, 3 s) on the public
`harness::Deployment` and, at t = 1.5 s, wipes the selector state of
every active RSNode — the state a newly activated RSNode starts from.

Measured: the reset itself produces no distinguishable transient. The
p99 of the 300 ms after it is 1.2x that of the 500 ms before it, and
windows with no event in them already spread from 14.5 to 37 ms at p99.
The reason is the aggregation that motivates NetRS: one of the 7 RSNodes
sees ~13 k responses/s, so C3's EWMAs and queue estimates re-converge
within milliseconds. (The one cold-start hazard seen during development
— C3's token-bucket rate limiters starting at client-scale budgets and
deflecting the first wave of requests — is the RSNode-scaling issue in
DESIGN.md §5, fixed by scaling the budget.)

Finding: a *re-solved* plan is another matter. The bench runs with the
controller's default RSP pacing (at most one new plan per 2 s), so a
further plan lands after 2.1 s, past the measured windows (the final
plan has 6 RSNodes, not 7). The two windows that follow, 2.3-2.5 s, are
the worst of the run at p99 52 and 63 ms; a one-off run with the pacing
raised to 60 s (one plan) reads 17 and 33 ms there, and is identical up
to 2.1 s. So wiping an RSNode's selector is cheap, but moving groups
onto a different set of RSNodes shows the transient §II warns about —
the paper's caution about frequent RSP updates holds for C3 too. One
seed, one run: the size of that transient is not yet measured across
seeds.
""",

    "fig_attribution": """## Latency attribution & selection quality (extension)

Where does each scheme's latency go, and how good are its decisions?
`bench/fig_attribution` runs CliRS, NetRS-ToR and NetRS-ILP at 70 % and
90 % utilization with the flight recorder and decision auditor enabled
(DESIGN.md §8.4/§8.5). Expected from the paper's causal chain:
CliRS's latency excess over NetRS should sit in the *server queue*
component (bad selections join long queues — the wire and service
components are scheme-invariant by construction), and the decision audit
should show CliRS deciding on much staler feedback with correspondingly
higher oracle regret, while NetRS pays a small, visible accelerator
queue + service toll per request.

Measured: exactly that shape. The `srv_queue` component dominates the
scheme differences (CliRS 2.84 ms vs NetRS-ILP 0.71 ms mean at 90 %)
while the wire components are flat and `srv_serv` nearly so (good
selections also land on fast-fluctuation-mode servers slightly more
often); NetRS's `accel_queue`+`accel_serv` toll is microseconds against
a milliseconds-scale `srv_queue` saving. The "Selection quality" table
shows NetRS-ILP deciding on ~50x fresher feedback than client-side C3
(6.4 ms vs 313 ms mean staleness at 90 %) with ~1/4 of its mean regret —
the paper's freshness argument as per-decision numbers rather than
end-to-end latency differences.
""",
    "fig_failover": """## Failure episode — fault injection (extension)

The paper's §III-C describes RSNode failover and Degraded Replica
Selection but never measures failure behavior. `bench/fig_failover`
does: a committed fault plan (docs/SCENARIOS.md) crashes server 0 *and*
grey-degrades server 3 by 8x at t=5 s, repairs both at t=10 s — run
through CliRS, NetRS-ToR and NetRS-ILP at k=8 / 20 servers / 64 clients
/ 70 % utilization, 210 k requests x 3 repeats, with the decision
auditor and a 100 ms latency/staleness timeline on. Expected: the
crash alone is latency-invisible (open-loop clients never retry, so
lost requests produce no samples), the slow node carries the p99 spike,
and the schemes should differ in whether their feedback freshness even
registers the episode.

Measured: NetRS-ILP is the only scheme that *detects* the fault — its
mean decision staleness jumps 5.5x during the window (6.25 -> 34.5 ms;
its handful of consolidated RSNodes stop hearing from the dead replica)
while CliRS and NetRS-ToR sit at ratios of 1.05x/0.99x, the episode
drowned in their 83 ms / 41 ms baseline staleness: they ride it out
blind. ILP also recovers fastest on both axes: staleness re-converges
within one 100 ms bucket of the repair (`stale_recovery_ms` = 100, the
others never detect), and its post/pre p99 ratio is 0.9989 — fully back
to baseline — vs 1.0073 (ToR) and 1.0120 (CliRS). The honest artifact
is the `lost`/`doomed` columns: ILP loses 2 422 requests into the dead
server vs ~200 for the blind schemes, because C3 has no crash detector
(the dead server's rate limiter froze at its healthy rate, and C3's
rate-control fall-through keeps granting it when better replicas'
limiters are momentarily closed). Fresher feedback cuts the tail but
detection != avoidance — see DESIGN.md §9 and the crash-aware-selector
item in ROADMAP.md.
""",
    "micro": """## Microbenchmarks

Hot-path costs on this machine (single core). The per-packet operations a
programmable switch emulates (magic peek + RID match + rewrite) cost
~10 ns; a NetRS header encode is ~24 ns and a parse ~4 ns; one full C3
round (rank 3 replicas, send bookkeeping, feedback) is under 100 ns even
with rate control; a Zipf draw over 10^8 keys is ~25 ns (rejection
inversion, O(1)); and the paper-scale RSP placement (128 groups x 320
operators) solves in ~86 ms — comfortably inside the controller's
multi-second RSP update period, and a plausible stand-in for the paper's
Gurobi call.
""",
}


MARKER = "\n<!-- RESULTS -->\n"
# A bench's output block, as bench_section() writes it.
FENCE_OPEN = "\n```text\n"
FENCE_CLOSE = "\n```\n"


def bench_sections(log: str) -> dict:
    """Maps each section heading the log produces to the section's text:
    the commentary, then the bench's output fenced, progress lines
    dropped."""
    sections = re.split(r"^=== RUNNING (\S+) ===$", log, flags=re.M)
    # sections = [prefix, name1, body1, name2, body2, ...]
    out = {}
    for i in range(1, len(sections) - 1, 2):
        name, body = sections[i], sections[i + 1]
        commentary = COMMENTARY.get(name, f"## {name}\n")
        # Strip progress lines, keep the result tables.
        lines = [
            ln
            for ln in body.splitlines()
            if not ln.startswith("[") or "]" not in ln[:60]
        ]
        body_clean = "\n".join(lines).strip("\n")
        heading = commentary.split("\n", 1)[0]
        out[heading] = (commentary + FENCE_OPEN + body_clean + FENCE_CLOSE +
                        "\n")
    return out


def notes_after_block(section: str) -> str:
    """The hand-written text after a section's log block ('' if none)."""
    start = section.find(FENCE_OPEN)
    if start < 0:
        return ""
    end = section.find(FENCE_CLOSE, start + len(FENCE_OPEN))
    if end < 0:
        return ""
    return section[end + len(FENCE_CLOSE):].lstrip("\n")


def assemble(md: str, log: str) -> str:
    """EXPERIMENTS.md text `md` with the sections of bench log `log`
    emplaced below the marker (see the module comment)."""
    head, tail = md.split(MARKER, 1)
    parts = re.split(r"(?m)^(?=## )", tail)
    lead, old = parts[0] or "\n", parts[1:]
    fresh = bench_sections(log)
    out = []
    for section in old:
        heading = section.split("\n", 1)[0]
        if heading in fresh:
            out.append(fresh.pop(heading) + notes_after_block(section))
        else:
            out.append(section)
    for text in fresh.values():
        if out and not out[-1].endswith("\n\n"):
            out[-1] += "\n"
        out.append(text)
    return head + MARKER + lead + "".join(out)


def main() -> int:
    md = open("EXPERIMENTS.md").read()
    if MARKER not in md:
        print("marker missing", file=sys.stderr)
        return 1
    log = open("bench_output.txt").read()
    open("EXPERIMENTS.md", "w").write(assemble(md, log))
    print("EXPERIMENTS.md assembled:", len(bench_sections(log)), "sections")
    return 0


if __name__ == "__main__":
    sys.exit(main())
