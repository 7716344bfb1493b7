#!/usr/bin/env python3
"""Layering gate for the control plane.

Every simulated control-plane exchange must go through net::ControlBus —
no layer above src/net may touch sim::Network links directly or hand-roll
channel-latency delivery schedules. This script greps the source tree for
the patterns the bus refactor eliminated and fails readably if any creep
back in.

Allowed layers:
  * src/net   — the bus itself (the one place link latency is applied)
  * src/sim   — owns Network/Link; naturally calls its own API
  * src/stream — the data plane: streaming deliberately models transfers
    on raw links (spool/retry semantics the control bus does not carry)

A second rule keeps each message's effect in its receiver: the gatekeeper's
prepare/commit/cancel entry points are called from its own bus handler in
src/lrms, never by a sender reaching into the site (send SubmitJob or
CancelJob instead).

A third rule keeps supervision honest: a Heartbeat is the agent's own
keepalive, so only src/glidein builds one; the broker can never fabricate
an agent's heartbeat.

A fourth rule gives a job's lifecycle state one writer: src/ assigns a job
record's state in exactly one place, CrossBroker::set_state, which traces
the transition, refreshes the queue-depth gauge and runs the job's
on_state_change. An assignment anywhere else skips all three.

Usage:
    check_layering.py [repo_root]

Exit status: 0 when the layering holds, 1 when a violation is found,
2 when the tree cannot be scanned.
"""

import pathlib
import re
import sys

# Directories (relative to src/) that may touch sim::Network directly.
ALLOWED_LINK_LAYERS = ("net", "sim", "stream")

# Raw link access: any ".link(" call on a network object. The control bus
# is the only component above src/sim that may resolve links.
RAW_LINK = re.compile(r"\bnetwork_?(\(\))?\s*\.\s*link\s*\(")

# Raw partition checks: consulting a link's failure schedule by hand
# instead of SendOptions::drop_when_down.
RAW_IS_UP = re.compile(r"\.\s*is_up\s*\(")

# Hand-rolled delivery delays: scheduling a callback after a channel
# latency is exactly what ControlBus::send() centralizes.
MANUAL_DELAY = re.compile(r"schedule\s*\([^;]*channel_latency")

# Directories (relative to src/) that may call the gatekeeper's entry points.
ALLOWED_GATEKEEPER_LAYERS = ("lrms",)

# A sender running the gatekeeper's work itself instead of messaging it.
GATEKEEPER_CALL = re.compile(
    r"gatekeeper\s*\(\s*\)\s*\.\s*(prepare|commit|cancel)\s*\(")

# Directories (relative to src/) that may build an agent's keepalive.
ALLOWED_HEARTBEAT_LAYERS = ("glidein",)

# A Heartbeat built anywhere but the agent that sends it.
HEARTBEAT_BUILD = re.compile(r"\bnet::Heartbeat\s*\{")

# A job record's state assigned (not compared).
STATE_WRITE = re.compile(r"\brecord\s*(\.|->)\s*state\s*=(?!=)")

# The one function that may assign it.
STATE_WRITER = "CrossBroker::set_state"

# The first line of a function definition: unindented, naming the function
# (qualified when it is a member) just before its parameter list.
DEFINITION = re.compile(r"^(?![#/}\s])[^;]*?\b([A-Za-z_]\w*(?:::\w+)*)\s*\(")

RULES = (
    (RAW_LINK, ALLOWED_LINK_LAYERS,
     "raw Network::link() access (route via ControlBus)"),
    (RAW_IS_UP, ALLOWED_LINK_LAYERS,
     "raw is_up() check (use SendOptions::drop_when_down)"),
    (MANUAL_DELAY, ALLOWED_LINK_LAYERS,
     "hand-rolled channel-latency schedule (use ControlBus::send options)"),
    (GATEKEEPER_CALL, ALLOWED_GATEKEEPER_LAYERS,
     "gatekeeper entry point called by a sender "
     "(send SubmitJob/CancelJob to its endpoint)"),
    (HEARTBEAT_BUILD, ALLOWED_HEARTBEAT_LAYERS,
     "Heartbeat built outside src/glidein (only the agent sends its "
     "keepalive)"),
)


def layer(rel: pathlib.PurePosixPath) -> str:
    return rel.parts[1] if len(rel.parts) >= 2 else ""


def scan(root: pathlib.Path) -> list[str]:
    violations = []
    state_writers = []
    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        sys.exit(2)
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = pathlib.PurePosixPath(path.relative_to(root).as_posix())
        rules = [(p, why) for p, layers, why in RULES if layer(rel) not in layers]
        function = None  # the definition the current line sits in
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            stripped = line.split("//")[0]
            definition = DEFINITION.match(stripped)
            if definition:
                function = definition.group(1)
            for pattern, why in rules:
                if pattern.search(stripped):
                    violations.append(f"{rel}:{lineno}: {why}\n    {line.strip()}")
            if STATE_WRITE.search(stripped):
                if function == STATE_WRITER:
                    state_writers.append(f"{rel}:{lineno}")
                else:
                    violations.append(
                        f"{rel}:{lineno}: job state assigned outside "
                        f"{STATE_WRITER} (end the job through it)\n"
                        f"    {line.strip()}")
    if len(state_writers) != 1:
        violations.append(
            f"{STATE_WRITER} assigns a job's state {len(state_writers)} "
            f"times, expected once: {', '.join(state_writers) or 'none found'}")
    return violations


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(".")
    violations = scan(root.resolve())
    if violations:
        print("[FAIL] control-plane layering violations:")
        for v in violations:
            print("  " + v)
        print(
            f"\n{len(violations)} violation(s). All broker/agent/site "
            "traffic must flow through net::ControlBus, each message's "
            "effect lives in its receiver (docs/protocol.md), and a job's "
            "state changes only in CrossBroker::set_state."
        )
        return 1
    print("[ok]   no raw network access outside src/net (data plane exempt)")
    print("[ok]   gatekeeper entry points called only from src/lrms")
    print("[ok]   Heartbeat messages built only in src/glidein")
    print(f"[ok]   job state assigned only in {STATE_WRITER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
