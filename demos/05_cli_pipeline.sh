#!/bin/sh
# Full pipeline through the command-line interface: generate a planted
# scene, train, reconstruct, and evaluate.  Artifacts land in the directory
# given as the first argument (created if missing, kept afterwards), or else
# in a temp dir removed on exit.
set -e

if [ -n "$1" ]; then
    DIR=$1
    mkdir -p "$DIR"
else
    DIR=$(mktemp -d)
    trap 'rm -rf "$DIR"' EXIT
fi

nrsfm generate --points 15 --frames 200 --width-first 12 --width-last 4 \
    --sparsity 1 --mode orthogonal --seed 11 --out "$DIR/scene.txt"

nrsfm train "$DIR/scene.txt" \
    --checkpoint "$DIR/model.ckpt" --history "$DIR/history.csv" \
    --width-first 12 --width-last 4 --batch-size 32 \
    --total-steps 3000 --eval-interval 500 --quiet

echo "--- history ---"
cat "$DIR/history.csv"

nrsfm reconstruct "$DIR/scene.txt" "$DIR/model.ckpt" --out "$DIR/rec.txt"

echo "--- evaluation ---"
nrsfm evaluate "$DIR/rec.txt" "$DIR/scene.txt" \
    --cumulative "$DIR/cumulative.csv" --coherence "$DIR/model.ckpt"
head -n 5 "$DIR/cumulative.csv"
