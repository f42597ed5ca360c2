"""Record the expected output digest of every item in every workload's pool.

    python3 perfbench/make_digests.py

Run it only when the program's outputs are meant to change; the digests
stand for the outputs of the commit that wrote them. For large-program it
also checks that the generated embedding table covers every key each
request looks up, which is what that workload promises.
"""

from __future__ import annotations

import json
import shutil
import sys

import gen
import run


def main() -> int:
    e2v = run.import_program()
    digests = {}
    for workload in gen.WORKLOADS:
        inputs = run.WORK / f"digests-{workload}"
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            manifest = gen.build(workload, None, run.SRC, inputs)
            table = run.make_table(e2v, manifest, inputs)
            handler = run.HANDLERS[workload](e2v, manifest, inputs, table)
            tracer = run.Tracer()
            out = {}
            for req in manifest["requests"]:
                output = tracer.request(handler, tracer.call, req)
                out[req["id"]] = handler.check(req, output)
                if not out[req["id"]]:
                    raise SystemExit(f"{req['id']}: distance matrix differs from the reference")
                if "keys" in req:
                    profile = tracer.results["linker.build_profile"]
                    looked_up = {k for c in profile.entries
                                 for k in ("tok:" + c.source_text, "path:" + c.path_encoding,
                                           "tok:" + c.target_text)}
                    if looked_up != set(req["keys"]):
                        raise SystemExit(f"{req['id']}: generated keys differ from the lookups")
            digests[workload] = dict(sorted(out.items()))
            print(f"{workload}: {len(out)} items", file=sys.stderr)
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
