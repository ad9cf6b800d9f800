#!/usr/bin/env bash
# The README's Quickstart and Evaluation commands, run on its three-document
# corpus in the current directory, plus the checks that pin what they print
# and write. Every command must exit 0 unless a check expects it to fail;
# under bash -e the script stops at the first that does not.
#
#   cd "$(mktemp -d)" && bash -e /path/to/tests/readme_commands.sh
#
# Needs `queryflip` and `python` on PATH.
set -e
cat > corpus.jsonl <<'EOF'
{"id": "d1", "text": "apple pie recipe"}
{"id": "d2", "text": "apple tree orchard"}
{"id": "d3", "text": "banana bread recipe"}
EOF
cat > config.json <<'EOF'
{"corpus": "corpus.jsonl", "artifacts": "artifacts", "out_dir": "reports",
 "embed_dim": 4, "embed_window": 2}
EOF
queryflip index --config config.json
queryflip search --config config.json "apple recipe" --k 5
# A repeated word and a word no document holds: the array-form
# search adds one row of weights per query token occurrence.
queryflip search --config config.json "apple apple recipe" --k 5
queryflip search --config config.json "apple zzz" --k 5
queryflip edit --config config.json --query "apple recipe" --doc d1 --counter d3
# "zzz" is no corpus word, so it is [UNK]: it is masked from the
# first iteration on and never reaches q'.
queryflip edit --config config.json --query "apple zzz" --doc d1 --counter d3 --out oov.jsonl
if grep -F '[UNK]' oov.jsonl; then exit 1; fi
# Batch edits: the same bytes twice under --timing off, and the
# trace lists each iteration's beam with each candidate's flip flag.
printf '{"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3"}\n' > triplets.jsonl
printf '{"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d2"}\n' >> triplets.jsonl
printf '{"query": "banana recipe", "doc_id": "d3", "counter_doc_id": "d1"}\n' >> triplets.jsonl
queryflip edit --config config.json --triplets triplets.jsonl --timing off --out edits-1.jsonl
queryflip edit --config config.json --triplets triplets.jsonl --timing off --out edits-2.jsonl
cmp edits-1.jsonl edits-2.jsonl
# "workers" in the config file runs edit's lines on a thread pool
# (the loop eval uses): the same bytes as one worker.
printf '{"corpus": "corpus.jsonl", "artifacts": "artifacts", "embed_dim": 4, "embed_window": 2, "workers": 2}' > workers.json
queryflip edit --config workers.json --triplets triplets.jsonl --timing off --out edits-w2.jsonl
cmp edits-1.jsonl edits-w2.jsonl
# The --workers flag sets the same field.
queryflip edit --config config.json --triplets triplets.jsonl --timing off --workers 2 --out edits-f2.jsonl
cmp edits-1.jsonl edits-f2.jsonl
grep -F '"beam": [{' edits-1.jsonl
grep -F '"flipped": true' edits-1.jsonl
# A query with no words fails, from the command line and from a
# triplets file, where the error names the line.
if queryflip edit --config config.json --query "?!" --doc d1 --counter d3 2> empty.txt; then exit 1; fi
grep -Fx 'error: empty query' empty.txt
printf '{"query": "?!", "doc_id": "d1", "counter_doc_id": "d3"}\n' > empty-triplets.jsonl
if queryflip edit --config config.json --triplets empty-triplets.jsonl 2> empty-line.txt; then exit 1; fi
grep -F 'empty query @ line 1' empty-line.txt
printf 'apple recipe\nbanana bread\n' > queries.txt
queryflip eval --config config.json --queries queries.txt \
    --methods cfe2,mask_only,max_flip
# max_flip ranks each target's stored sentences once: the same
# report bytes twice under --timing off.
queryflip eval --config config.json --queries queries.txt --methods max_flip --timing off
cp reports/report.json max-flip-1.json
queryflip eval --config config.json --queries queries.txt --methods max_flip --timing off
cmp max-flip-1.json reports/report.json
queryflip sweep-beam --config config.json --queries queries.txt --sizes 5,10,15,20
# Through the occlusion masker too, no outcome keeps the [UNK] of
# "zzz"; the query field rightly does, so the check reads outcomes.
printf 'apple zzz\n' > oov-queries.txt
queryflip eval --config config.json --queries oov-queries.txt \
    --masker occlusion --methods cfe2,mask_only
python - <<'PY'
import json
records = [r for body in json.load(open("reports/report.json")).values()
           for r in body["records"]]
outcomes = [r["outcome"] for r in records if r["outcome"] is not None]
assert outcomes, "no outcome"
assert not any("[UNK]" in o for o in outcomes), outcomes
PY
# A byte that is not UTF-8 on line 2 fails the index naming that line.
printf '{"id": "d1", "text": "apple"}\n{"id": "d2", "text": "caf\xe9"}\n' > bad.jsonl
printf '{"corpus": "bad.jsonl", "artifacts": "bad-artifacts"}' > bad.json
if queryflip index --config bad.json 2> err.txt; then exit 1; fi
grep -F '@ line 2' err.txt
# A backend url with no scheme fails at config load, naming the role.
printf '{"corpus": "corpus.jsonl", "artifacts": "artifacts", "embed_dim": 4, "embed_window": 2, "backends": {"score": {"url": "localhost:8080"}}}' > no-scheme.json
if queryflip eval --config no-scheme.json --queries queries.txt 2> no-scheme.txt; then exit 1; fi
grep -F 'backends.score (url must start with http:// or https://)' no-scheme.txt
# So does a url that names no host.
printf '{"corpus": "corpus.jsonl", "artifacts": "artifacts", "embed_dim": 4, "embed_window": 2, "backends": {"score": {"url": "http://"}}}' > no-host.json
if queryflip eval --config no-host.json --queries queries.txt 2> no-host.txt; then exit 1; fi
grep -F 'backends.score (url must name a host)' no-host.txt
# So do a timeout past poll(2)'s range and a token a header cannot carry.
printf '{"corpus": "corpus.jsonl", "artifacts": "artifacts", "embed_dim": 4, "embed_window": 2, "backends": {"score": {"url": "http://host", "timeout_ms": 10000000000000}}}' > big-timeout.json
if queryflip eval --config big-timeout.json --queries queries.txt 2> big-timeout.txt; then exit 1; fi
grep -F 'backends.score (timeout_ms must be <= 2147483647)' big-timeout.txt
printf '{"corpus": "corpus.jsonl", "artifacts": "artifacts", "embed_dim": 4, "embed_window": 2, "backends": {"score": {"url": "http://host", "token": "a b"}}}' > bad-token.json
if queryflip eval --config bad-token.json --queries queries.txt 2> bad-token.txt; then exit 1; fi
grep -F 'backends.score (token must match [A-Za-z0-9._~+/-]+=*)' bad-token.txt
# About 2,000 content words, above the 900 up to which the dense
# eigendecomposition runs: the build logs its Lanczos solve.
python - <<'PY'
import json, random
rng = random.Random(1)
words = [f"w{i}" for i in range(2200)]
weights = [1 / (r + 1) for r in range(len(words))]
with open("zipf.jsonl", "w") as fh:
    for d in range(3000):
        text = " ".join(rng.choices(words, weights, k=rng.randint(5, 14)))
        fh.write(json.dumps({"id": f"d{d}", "text": text}) + "\n")
PY
printf '{"corpus": "zipf.jsonl", "artifacts": "zipf-artifacts"}' > zipf.json
queryflip --log-level DEBUG index --config zipf.json 2> zipf.log
grep -E '^DEBUG lanczos: top 64 of [0-9]+ eigenpairs in [0-9]+ steps, 0 restarts$' zipf.log
# Loading it checks and packs an n-gram table larger than any
# test corpus makes.
queryflip search --config zipf.json "w1 w2" --k 5
