"""Print the digests that must not depend on the interpreter or hash seed.

Records the shipped scenario corpus and a 4x seed-shuffled one, then
prints one line per pinned canonical report (policy, budget, corpus,
sha256 of the report) and one line for the semi-valid case stream of both
corpora (sha256 of every case's sorted-key JSON, one per line).  Uses the
standard library and the package under ``src`` only, so any Python 3.10+
can run it:

    python3 scripts/determinism.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parcelfuzz.harness import FuzzConfig, run_fuzz  # noqa: E402
from parcelfuzz.mutator import generate_campaign  # noqa: E402
from parcelfuzz.recorder import SCENARIOS, record_session  # noqa: E402

REPORTS = (("semi-valid", 10000, "corpus"), ("semi-valid", 10000, "shuffled_corpus"), ("empty,random", 10000, "corpus"))


def main() -> None:
    names = [name for name in SCENARIOS for _ in range(4)]
    random.Random(11).shuffle(names)
    corpora = {"corpus": record_session(["all"]), "shuffled_corpus": record_session(names)}
    for policy, budget, corpus in REPORTS:
        config = FuzzConfig(policy=policy.split(","), budget=budget, rng_seed=1, corpus=corpora[corpus])
        digest = hashlib.sha256(run_fuzz(config).to_canonical_json().encode("utf-8")).hexdigest()
        print(policy, budget, corpus, digest)
    stream = hashlib.sha256()
    for records in corpora.values():
        for case in generate_campaign(records, ["semi-valid"], 10000, 1):
            stream.update(json.dumps(case.to_json(), sort_keys=True).encode("utf-8") + b"\n")
    print("semi-valid-stream", stream.hexdigest())


if __name__ == "__main__":
    main()
