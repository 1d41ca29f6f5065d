#!/bin/sh
# Source invariants the type checker cannot see.  Usage: lint.sh [ROOT]
# scans the OCaml sources under ROOT (default: the current directory),
# prints one message per violated rule, and exits 1 if any rule fails.
cd "${1:-.}" || exit 2
status=0
fail() { echo "lint: $1"; status=1; }
# Sources only: under _build the scanned trees also hold build artifacts.
src() { grep -rnE --include='*.ml' --include='*.mli' "$@" 2>/dev/null; }

# Protocol conformance: every driver->kernel slot is adjudicated by the
# Conformance validator before anything acts on it, so raw unmarshalling
# belongs to the uchan library alone (dispatch + validator).
src 'Msg\.(Batch\.)?unmarshal_view' lib bin examples \
  | grep -vE '^lib/uchan/(msg|uchan|conformance)\.(ml|mli)' | grep -q . \
  && fail 'Msg.unmarshal_view outside lib/uchan (ingress must go through Conformance)'

# Batched datapath: data messages ride the queue-aware Async/Batched
# paths so bursts coalesce into one notification per batch; a Sync
# transfer of a datapath kind is a blocking round-trip per frame.
src 'Uchan\.Sync \(Msg\.make ~kind:Proxy_proto\.(up_net_xmit|up_interrupt|down_netif_rx|down_tx_free)' \
  lib/core/proxy_net.ml lib/core/sud_uml.ml | grep -q . \
  && fail 'per-frame send on the proxy net datapath (use ~queue Async/Batched)'

# Unified lifecycle: degrade/revive is the terminal quarantine pair and
# belongs to the supervision machinery; recovery uses quiesce/resume.
src 'Proxy_class\.(degrade|revive)[^a-zA-Z_]' lib bin bench test examples \
  | grep -vE '^lib/core/' | grep -q . \
  && fail 'Proxy_class.degrade/revive outside lib/core (quarantine is supervisor-only; recovery uses quiesce/resume)'

# Determinism: stdlib Random is global state the sud-check recorder
# cannot capture; all randomness flows from the splitmix64 Rng.
src '(^|[^.A-Za-z_"])Random\.' lib bin bench test examples \
  | grep -vE '^lib/sim/rng\.(ml|mli)' | grep -q . \
  && fail 'stdlib Random used outside lib/sim/rng.ml (use Rng / Rng.derive so runs record and replay)'

exit $status
