#!/usr/bin/env bash
# Serving-layer smoke test: drives locsd end to end in both deployment
# modes and fails unless every query draws an OK reply.
#
#   1. scripted stdio session  — LOAD + CST + CSM + MULTI + STATS + QUIT
#   2. image-backed session    — locs_cli compile + LOAD of the .limg
#      (auto-detected by content), with every query reply required to
#      match the text-loaded transcript byte for byte
#   3. malformed-input session — typed ERR replies, clean exit (no crash)
#   4. TCP loopback session    — locsd --port=0 + locs_cli client, with
#      the CST reply required to match the stdio transcript byte for
#      byte (replies are deterministic by design), then SIGTERM drain.
#
# Usage: tools/smoke_serve.sh [build-dir]   (default: build)
# The build tree must exist; the script builds the two binaries it needs.
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 2)"

cmake --build "${build}" -j "${jobs}" --target locsd locs_cli

locsd="${build}/tools/locsd"
cli="${build}/tools/locs_cli"
work="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [[ -n "${daemon_pid}" ]] && kill -9 "${daemon_pid}" 2>/dev/null || true
  rm -rf "${work}"
}
trap cleanup EXIT

"${cli}" generate --model=lfr --n=2000 --seed=5 \
  --output="${work}/g.txt" >/dev/null

echo "=== smoke: stdio session ==="
stdio_out="$(printf 'PING\nLOAD g %s\nCST g 7 3 limit=5\nCSM g 7 limit=5\nMULTI g 2 7 8 limit=5\nSTATS\nQUIT\n' \
  "${work}/g.txt" | "${locsd}" --stdio 2>/dev/null)"
echo "${stdio_out}"
ok_lines="$(grep -c '^OK ' <<<"${stdio_out}")"
if [[ "${ok_lines}" -ne 7 ]]; then
  echo "FAIL: expected 7 OK replies over stdio, got ${ok_lines}" >&2
  exit 1
fi
grep -q '^OK status=found' <<<"${stdio_out}" || {
  echo "FAIL: no query answered over stdio" >&2
  exit 1
}

echo "=== smoke: image-backed session ==="
"${cli}" compile "${work}/g.txt" "${work}/g.limg"
img_out="$(printf 'PING\nLOAD g %s\nCST g 7 3 limit=5\nCSM g 7 limit=5\nMULTI g 2 7 8 limit=5\nSTATS\nQUIT\n' \
  "${work}/g.limg" | "${locsd}" --stdio 2>/dev/null)"
echo "${img_out}"
img_ok_lines="$(grep -c '^OK ' <<<"${img_out}")"
if [[ "${img_ok_lines}" -ne 7 ]]; then
  echo "FAIL: expected 7 OK replies from the image session," \
       "got ${img_ok_lines}" >&2
  exit 1
fi
grep -q 'source=image' <<<"${img_out}" || {
  echo "FAIL: LOAD of a .limg file was not detected as an image" >&2
  exit 1
}
# Query replies are deterministic; the image-backed graph must answer
# every query exactly like the text-loaded one.
if [[ "$(grep '^OK status=' <<<"${img_out}")" \
      != "$(grep '^OK status=' <<<"${stdio_out}")" ]]; then
  echo "FAIL: image-backed replies diverge from text-loaded replies" >&2
  diff <(grep '^OK status=' <<<"${stdio_out}") \
       <(grep '^OK status=' <<<"${img_out}") >&2 || true
  exit 1
fi

echo "=== smoke: malformed input survives ==="
bad_out="$(printf 'FROBNICATE\nCST\nCST g seven 3\nPING\nQUIT\n' \
  | "${locsd}" --stdio 2>/dev/null)" || {
  echo "FAIL: locsd crashed on malformed input" >&2
  exit 1
}
err_lines="$(grep -c '^ERR ' <<<"${bad_out}")"
if [[ "${err_lines}" -ne 3 ]] || ! grep -q '^OK pong' <<<"${bad_out}"; then
  echo "FAIL: malformed input must draw typed ERR and keep serving" >&2
  echo "${bad_out}" >&2
  exit 1
fi

echo "=== smoke: TCP loopback session ==="
"${locsd}" --port=0 --port-file="${work}/port" \
  --preload=g="${work}/g.limg" 2>"${work}/daemon.log" &
daemon_pid="$!"
port=""
for _ in $(seq 1 100); do
  [[ -s "${work}/port" ]] && { port="$(cat "${work}/port")"; break; }
  sleep 0.05
done
if [[ -z "${port}" ]]; then
  echo "FAIL: locsd never wrote its port file" >&2
  cat "${work}/daemon.log" >&2
  exit 1
fi
tcp_out="$(printf 'CST g 7 3 limit=5\nQUIT\n' \
  | "${cli}" client --port="${port}" 2>/dev/null)"
echo "${tcp_out}"
tcp_cst="$(grep '^OK status=' <<<"${tcp_out}" | head -1)"
stdio_cst="$(grep '^OK status=' <<<"${stdio_out}" | head -1)"
if [[ -z "${tcp_cst}" || "${tcp_cst}" != "${stdio_cst}" ]]; then
  echo "FAIL: TCP reply diverges from stdio reply" >&2
  echo "  stdio: ${stdio_cst}" >&2
  echo "  tcp:   ${tcp_cst}" >&2
  exit 1
fi

kill -TERM "${daemon_pid}"
if ! wait "${daemon_pid}"; then
  echo "FAIL: locsd did not drain cleanly on SIGTERM" >&2
  cat "${work}/daemon.log" >&2
  exit 1
fi
daemon_pid=""
grep -q 'drained' "${work}/daemon.log" || {
  echo "FAIL: drain message missing from daemon log" >&2
  exit 1
}

echo "Serving-layer smoke passed."
