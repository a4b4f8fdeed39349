#!/bin/sh
# Run every rmae command on a tiny synthetic config and keep its artifacts.
#
#   scripts/cli_artifacts.sh SRC OUT
#
# SRC is the directory holding the rmae package (a checkout's src/); OUT
# receives one directory per RMAE_THREADS value (t1, t2), each with one
# directory per run, and exit-codes.txt, the exit code of each run of bad
# input.  Runs use paths relative to their OUT/tN directory, so the records
# of two checkouts differ only in "out" lines:
#
#   scripts/cli_artifacts.sh old/src /tmp/a
#   scripts/cli_artifacts.sh new/src /tmp/b
#   diff -r -I '"out":' /tmp/a /tmp/b    # no output: same behaviour
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
SRC=$(cd "$1" && pwd)
mkdir -p "$2"
OUT=$(cd "$2" && pwd)

TINY="synth.frames=2 synth.ground_extent=6.0 synth.box_count=3
geometry.min_corner=[-6.4,-6.4,-1.6] geometry.voxel_size=[0.8,0.8,0.8]
geometry.dims=[16,16,8] net.stage_channels=[4,8,8] train.epochs=1
train.batch_size=1"

rmae() {
    PYTHONPATH="$SRC" python3 -m rmae.cli "$@"
}

# fails NAME COMMAND ARGS...: run a command that should fail, append
# "NAME CODE" to exit-codes.txt and drop its output directory
fails() {
    name=$1
    command=$2
    shift 2
    code=0
    rmae "$command" --out failed "$@" 2>/dev/null || code=$?
    echo "$name $code" >>exit-codes.txt
    rm -rf failed
}

for threads in 1 2; do
    dir="$OUT/t$threads"
    rm -rf "$dir"
    mkdir -p "$dir"
    (
        cd "$dir"
        export RMAE_THREADS=$threads
        # shellcheck disable=SC2086 # TINY is a list of overrides
        {
            rmae pretrain --out pretrain $TINY
            # a training dense backward on unequal axes
            rmae pretrain --out pretrain-anisotropic $TINY \
                'geometry.dims=[16,12,8]'
            rmae eval --out eval --checkpoint pretrain/checkpoint.rmae $TINY
            # three frames: at two workers a forked worker and the caller
            # take a round of two, and the caller alone a ragged round
            rmae eval --out eval-ragged --checkpoint pretrain/checkpoint.rmae \
                $TINY synth.frames=3
            # an anisotropic grid, whose decoder phases differ per axis
            rmae eval --out eval-anisotropic \
                --checkpoint pretrain/checkpoint.rmae $TINY \
                'geometry.dims=[16,12,8]'
            rmae sweep-ratio --out sweep-ratio 'sweep.ratios=[0.0,0.9]' $TINY
            rmae sweep-angle --out sweep-angle 'sweep.spans_deg=[5.0,45.0]' \
                $TINY
            rmae mask --out mask 'mask.r_thresholds=[6.0,12.0]' $TINY
            # each branch of the mask: an exact-count draw, nothing masked,
            # and per-group drop rows with bands inside the grid's reach
            rmae mask --out mask-exact $TINY mask.selection_mode=exact_count \
                mask.m=0.5
            rmae mask --out mask-none $TINY mask.m=0.0 \
                'mask.p_drop=[[0.0,0.0,0.0]]'
            rmae mask --out mask-rows $TINY mask.n_groups=4 \
                'mask.r_thresholds=[3.0,6.0]' \
                'mask.p_drop=[[0.0,0.5,0.9],[0.2,0.2,0.2],[1.0,0.0,0.0],[0.5,0.5,0.5]]'
            rmae voxelize --out voxelize $TINY
            # a grid smaller than the scene, so points are dropped
            rmae voxelize --out voxelize-crop $TINY 'geometry.dims=[8,8,4]'
            # a 64-ring, 0.2 degree scan whose 40 boxes of up to 6 m cast
            # shadows over many rings and columns
            rmae voxelize --out voxelize-dense $TINY synth.sensor_rings=64 \
                synth.azimuth_step_deg=0.2 synth.box_count=40 \
                'synth.box_size=[0.6,6.0]'
            # one ground sample per ring
            rmae voxelize --out voxelize-one-sample $TINY \
                synth.azimuth_step_deg=400.0
            rmae energy --out energy --stats mask/stats.json
            rmae energy --out energy-params --stats mask/stats.json \
                energy.R=60.0 energy.tau=2e-9 energy.N_bits=10 \
                energy.N_fft=256
            rmae pretrain --out rerun --config pretrain/resolved_config.json
            rmae pretrain --out sphere query.mode=sphere $TINY
            rmae eval --out sphere-eval --checkpoint sphere/checkpoint.rmae \
                $TINY
            rmae pretrain --out sphere-batch2 $TINY query.mode=sphere \
                train.batch_size=2
            # one full batch of two frames and one ragged batch of one, so
            # at two workers two frames train at once
            rmae pretrain --out batched $TINY synth.frames=3 \
                train.batch_size=2
            # the same in sphere mode: at two workers the ragged batch's
            # sum starts from a forked worker's gradients
            rmae pretrain --out sphere-batched $TINY query.mode=sphere \
                synth.frames=3 train.batch_size=2
            # a one-stage net, whose head decodes the latent itself
            rmae pretrain --out one-stage $TINY 'net.stage_channels=[4]'
            rmae eval --out one-stage-eval \
                --checkpoint one-stage/checkpoint.rmae $TINY
            # a four-stage net: a third down conv and a fourth level
            rmae pretrain --out four-stage $TINY \
                'net.stage_channels=[4,8,8,8]' query.mode=sphere
            rmae eval --out four-stage-eval \
                --checkpoint four-stage/checkpoint.rmae $TINY query.mode=sphere
            # the seeds of later epochs without remasking, the balanced
            # query draw and the exact-count mask draw
            rmae pretrain --out keyed $TINY train.epochs=2 \
                train.remask_each_epoch=false query.balance_empty=true \
                mask.selection_mode=exact_count
            rmae eval --out keyed-eval --checkpoint keyed/checkpoint.rmae \
                $TINY query.balance_empty=true mask.selection_mode=exact_count
            # a balanced sphere query, whose draw keeps canonical order
            rmae pretrain --out sphere-balanced $TINY query.mode=sphere \
                query.balance_empty=true query.sphere_radius=1.5 \
                train.epochs=2
            rmae eval --out sphere-balanced-eval \
                --checkpoint sphere-balanced/checkpoint.rmae $TINY \
                query.mode=sphere query.balance_empty=true \
                query.sphere_radius=1.5
            # a three-stage net down to a coarsest level of [3,3,1]
            rmae pretrain --out odd-coarse $TINY 'geometry.dims=[12,12,4]' \
                query.mode=sphere
            # a mask that leaves so few voxels that some kernel taps of
            # the encoder find exactly one present neighbour pair
            rmae pretrain --out sparse-mask $TINY mask.m=0.95
            rmae eval --out sparse-mask-eval \
                --checkpoint sparse-mask/checkpoint.rmae $TINY mask.m=0.95
            # per-group drop rows, which an angular sweep cuts to row 0
            rmae sweep-angle --out sweep-angle-rows \
                'sweep.spans_deg=[90.0,30.0]' $TINY mask.n_groups=4 \
                mask.m=0.5 \
                'mask.p_drop=[[0.0,0.5,0.9],[0.2,0.2,0.2],[1.0,0.0,0.0],[0.5,0.5,0.5]]'

            # bad input: each run's exit code goes to exit-codes.txt, and
            # whatever it wrote is removed.  The sizes are far beyond any
            # cap, so code without the caps is refused their arrays at once.
            printf '\377{}' >not-utf8.json
            fails not-utf8-config mask --config not-utf8.json $TINY
            fails dims-cap mask $TINY 'geometry.dims=[100000,100000,1000]'
            fails groups-cap mask $TINY mask.n_groups=1000000000000
            fails channels-cap pretrain $TINY 'net.stage_channels=[1000000000]'
            fails net-seed pretrain $TINY net.seed=-1
            fails optimizer-sgd pretrain $TINY train.optimizer=sgd
            fails epochs-cap pretrain $TINY train.epochs=1000000000000
            fails spans-cap sweep-angle $TINY 'sweep.spans_deg=[1e-9]'
            printf 'not json' >not-json.json
            fails stats-not-json energy --stats not-json.json
            fails diverged pretrain $TINY train.learning_rate=1e300
            rm not-utf8.json not-json.json
        }
    )
done
echo "artifacts in $OUT"
