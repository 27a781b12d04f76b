#!/usr/bin/env sh
# Maelstrom smoke: run the real Jepsen harness (echo workload, partition
# nemesis) against `dwapsp run-node --maelstrom`.
#
# Two legs:
#   1. A stdio self-check of the init/echo handshake that always runs —
#      a broken binary fails here, loudly, with no harness needed.
#   2. The real harness, when available: $MAELSTROM_BIN, a `maelstrom`
#      on PATH, or one unpacked at target/maelstrom/. The script never
#      reaches for the network itself (`make ci` must be safe to run in
#      an offline sandbox), so this leg skips with an explicit SKIP line
#      and exit 0 when the prerequisites are missing; any actual
#      harness failure still exits nonzero.
set -u

say() { echo "maelstrom-smoke: $*"; }

BIN="${DWAPSP_BIN:-target/release/dwapsp}"
if [ -z "${DWAPSP_BIN:-}" ]; then
    # Always rebuild (incremental, cheap): a stale binary predating the
    # --maelstrom flag must not fail the self-check below.
    cargo build --release -q -p dwapsp || {
        say "FAIL: cannot build dwapsp"
        exit 1
    }
fi

# --- leg 1: handshake self-check (always runs) ---------------------------
# The third line puts the envelope's `src` last and a decoy `src` in
# the body: the reply must still go to c1.
OUT=$(printf '%s\n%s\n%s\n' \
    '{"src":"c1","dest":"n1","body":{"type":"init","msg_id":1,"node_id":"n1","node_ids":["n1","n2","n3"]}}' \
    '{"src":"c1","dest":"n1","body":{"type":"echo","msg_id":2,"echo":"smoke"}}' \
    '{"dest":"n1","body":{"src":"x","type":"echo","msg_id":4,"echo":1},"src":"c1"}' |
    "$BIN" run-node --maelstrom 2>/dev/null) || {
    say "FAIL: run-node --maelstrom exited nonzero"
    exit 1
}
echo "$OUT" | grep -q '"type":"init_ok"' || {
    say "FAIL: no init_ok in reply: $OUT"
    exit 1
}
echo "$OUT" | grep -q '"echo":"smoke"' || {
    say "FAIL: echo value not reflected: $OUT"
    exit 1
}
echo "$OUT" | grep '"in_reply_to":4' | grep -q '"dest":"c1","body":{"type":"echo_ok"' || {
    say "FAIL: reordered echo not answered to c1: $OUT"
    exit 1
}
say "stdio self-check passed (init_ok + echo_ok, keys in any order)"

# --- leg 2: the real harness, if it is installed --------------------------
if ! command -v java >/dev/null 2>&1; then
    say "SKIP: no java on PATH (the Maelstrom harness is a JVM program)"
    exit 0
fi

MAELSTROM="${MAELSTROM_BIN:-}"
if [ -z "$MAELSTROM" ]; then
    if command -v maelstrom >/dev/null 2>&1; then
        MAELSTROM=$(command -v maelstrom)
    elif [ -x target/maelstrom/maelstrom ]; then
        MAELSTROM=target/maelstrom/maelstrom
    fi
fi
if [ -z "$MAELSTROM" ] || [ ! -x "$MAELSTROM" ]; then
    say "SKIP: Maelstrom harness unavailable (set MAELSTROM_BIN, put it on PATH, or unpack the v0.2.3 release of jepsen-io/maelstrom into target/maelstrom/)"
    exit 0
fi

# Maelstrom execs the node binary with no arguments, so wrap ours.
WRAP=target/maelstrom-node.sh
{
    echo '#!/usr/bin/env sh'
    echo "exec \"$(pwd)/$BIN\" run-node --maelstrom"
} >"$WRAP"
chmod +x "$WRAP"

say "running echo workload + partition nemesis under $MAELSTROM"
"$MAELSTROM" test -w echo --bin "$WRAP" --node-count 3 \
    --time-limit 15 --nemesis partition || {
    say "FAIL: maelstrom test run failed"
    exit 1
}
say "harness run passed"
