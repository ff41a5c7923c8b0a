#!/bin/sh
# Behaviour contract of walk_tool's flags. Each case is one small run
# with one flag at a non-default value; it differs from its group's base
# run, or from an earlier case, in that flag alone (the --service-burst*
# flags act only together, so their group's base sets all three). The
# script hashes the run's stdout less its `wrote` lines, its stderr, its
# exit code and the sha256 of every file it exports, and compares that
# with the digest recorded below. A flag that sets the wrong field, or
# none, moves its case's digest.
#
# Only the simulated engines run here (lightrw-sim, distributed,
# service, chaos campaigns): the cpu and functional engines print wall
# time. --threads must leave its run identical to the base run.
#
# Usage: flag_pins_test.sh <path-to-walk_tool>
set -u

TOOL="${1:?usage: $0 <path-to-walk_tool>}"

OUT=$(mktemp -d "${TMPDIR:-/tmp}/flag_pins.XXXXXX") || exit 1
trap 'rm -rf "$OUT"' EXIT

# pin <case> <walk_tool flags...>: runs the case and appends its name
# and digest to $OUT/got.
pin() {
  name="$1"
  shift
  dir="$OUT/$name"
  mkdir "$dir"
  "$TOOL" "$@" --out-dir "$dir" >"$dir.out" 2>"$dir.err"
  code=$?
  digest=$({
    grep -v '^wrote ' "$dir.out"
    cat "$dir.err"
    echo "exit $code"
    cd "$dir" && sha256sum -- * 2>/dev/null
  } | sha256sum | cut -d' ' -f1)
  printf '%s\n  %s\n' "$name" "$digest" >>"$OUT/got"
}

# An edge list whose reverse edges are missing, for --graph and
# --undirected.
GRAPH="$OUT/graph.txt"
printf '%s\n' '0 1' '0 2' '1 2' '1 3' '2 3' '2 4' '3 4' '3 5' '4 5' '4 0' \
  '5 0' '5 1' '6 0' '6 3' >"$GRAPH"

SIM="--engine lightrw-sim --rmat_scale 8 --app deepwalk --length 8 \
  --queries 64 --seed 42 --exports corpus,metrics,trace,timeseries"
pin sim $SIM
pin rmat_scale $SIM --rmat_scale 9
pin graph $SIM --graph "$GRAPH"
pin undirected $SIM --graph "$GRAPH" --undirected
pin app-node2vec $SIM --app node2vec
pin p $SIM --app node2vec --p 4
pin q $SIM --app node2vec --q 2
pin app-metapath $SIM --app metapath
pin app-ppr $SIM --app ppr
pin alpha $SIM --app ppr --alpha 0.3
pin length $SIM --length 12
pin queries $SIM --queries 32
pin seed $SIM --seed 7
pin report $SIM --report
pin scrape-interval $SIM --scrape-interval 512
pin threads $SIM --threads 2
pin fault-dram-correctable $SIM --fault-dram-correctable 0.05
pin fault-seed $SIM --fault-dram-correctable 0.05 --fault-seed 9
pin fault-dram-uncorrectable $SIM --fault-dram-uncorrectable 0.01

DIST="--engine distributed --rmat_scale 8 --app deepwalk --length 16 \
  --queries 128 --seed 42 --boards 2 --partition hash \
  --exports corpus,metrics,spans,timeseries"
pin distributed $DIST
pin boards $DIST --boards 4
pin partition $DIST --partition range
pin replicate $DIST --replicate
pin fault-link-drop $DIST --fault-link-drop 0.01
pin fault-link-corrupt $DIST --fault-link-corrupt 0.01
DEATH="$DIST --fault-fail-cycles 2000 --fault-fail-boards 1"
pin death $DEATH
pin fault-fail-cycles $DEATH --fault-fail-cycles 3000
pin fault-fail-boards $DEATH --fault-fail-boards 0
pin fault-checkpoint-interval $DEATH --fault-checkpoint-interval 1024
pin no-checkpoints $DEATH --fault-checkpoint-interval 0
pin fault-allow-walker-loss $DEATH --fault-checkpoint-interval 0 \
  --fault-allow-walker-loss
pin spare-boards $DEATH --spare-boards 1
pin rebuild-bytes-per-cycle $DEATH --spare-boards 1 \
  --rebuild-bytes-per-cycle 4
# Checkpoints every 1024 cycles, so that each walker writes several
# generations.
SPARE="$DEATH --fault-checkpoint-interval 1024 --spare-boards 1"
pin spare-checkpoints $SPARE
pin ckpt-store $SPARE --ckpt-store
STORE="$SPARE --ckpt-store"
pin ckpt-generations $STORE --ckpt-generations 1
pin ckpt-replicas $STORE --ckpt-replicas 1
pin ckpt-read-latency $STORE --ckpt-read-latency 2048
pin ckpt-torn-rate $STORE --ckpt-torn-rate 0.2
pin ckpt-stale-rate $STORE --ckpt-stale-rate 0.2
pin ckpt-bit-rot $STORE --ckpt-bit-rot 0.001
pin ckpt-scrub-interval $STORE --ckpt-bit-rot 0.001 \
  --ckpt-scrub-interval 1024
pin ckpt-scrub-bytes $STORE --ckpt-bit-rot 0.001 \
  --ckpt-scrub-interval 1024 --ckpt-scrub-bytes 4

SVC="--engine service --rmat_scale 8 --app deepwalk --length 16 \
  --queries 256 --seed 42 --boards 2 --partition hash --service-rate 32 \
  --service-deadline 8192 --service-queue-cap 4 \
  --exports metrics,spans,timeseries"
pin service $SVC
pin service-rate $SVC --service-rate 16
pin service-deadline $SVC --service-deadline 4096
pin service-queue-cap $SVC --service-queue-cap 8
pin service-retries $SVC --service-retries 0
pin service-degrade $SVC --service-degrade=false
pin service-best-effort $SVC --service-best-effort 0.5
pin span-mode $SVC --span-mode breached
pin slo-max-shed $SVC --slo-max-shed 0.01
pin slo-max-violation $SVC --slo-max-violation 0.01
pin service-replicated $SVC --replicate
pin service-shards $SVC --replicate --service-shards 2
BURST="$SVC --service-burst 4 --service-burst-on 512 \
  --service-burst-off 512"
pin burst $BURST
pin service-burst $BURST --service-burst 8
pin service-burst-on $BURST --service-burst-on 256
pin service-burst-off $BURST --service-burst-off 1024

CHAOS="--chaos-scenarios 2 --chaos-seed 1 --boards 4 --rmat_scale 8 \
  --length 8 --queries 64 --exports chaos,spans"
pin chaos $CHAOS
pin chaos-scenarios $CHAOS --chaos-scenarios 3
pin chaos-seed $CHAOS --chaos-seed 2
pin chaos-spares $CHAOS --chaos-spares 0

# The digests recorded for the cases above, in their order.
cat >"$OUT/want" <<'EOF'
sim
  f2a278e68cd97b0bd10782ca90e06dbe8b28332018845de96d5eb02a271904b4
rmat_scale
  e0c7edd36306c2eff0a569bf14f4b27150bec8aa39d478abf56084d4df6246fa
graph
  1511b3367e3c2414224c4ff92022bbcd35c9d100baf3bc763ada4474dd9aa8a5
undirected
  2e25150e920a64206439fddf7cda69adf4521c48b12f4825abb089ba2b450348
app-node2vec
  f6101c2f9bf40b606edc2ee1a4ee94137cc4d2c8d5d37ec9c35f507e9d59a058
p
  64c18a98a0d7b4d41373612a63541648334e1e6772a8f2e88f1d3277319a92c2
q
  6cba56cd7e7603dfdab203fdb81d8fa214b401e2e24a2e66e8f47eb614df0425
app-metapath
  ea833897aeb7d84574a88eff21228fec7995ffa3fb74b0919bde1dbcd28162c6
app-ppr
  422fd6125d52b4df19d5886865128da46cdc8a5e7c3b56315e48f863a19ba656
alpha
  a7eda5328addf33a58334d8c61ce9d549415ea500a0fbbf64affe3b3375a3bc8
length
  0470b693b1f5122883040aed89be99d4dbcc4b35193c3ff89553d36b1ceeea7e
queries
  19d6fa35046b63213f3f7055b0be3063ae6192b0e86215bfc4ddc0a91e99b0e9
seed
  2b1d9b667600593bd813db87e47d81e24ef172aeeaefeb842ccdf66536bb74ff
report
  adca283e65b29fb19a38199d603fa83a07c6360f94ac70b022382687693e3dec
scrape-interval
  a93ca23994f757f15c5ce59a02e47dc97368eddb2837c66d23751305db1e013a
threads
  f2a278e68cd97b0bd10782ca90e06dbe8b28332018845de96d5eb02a271904b4
fault-dram-correctable
  5f8e64b5615a7c37a810db0324da30d6028fe58cc03998d68293d56d90c4a8a0
fault-seed
  07c730647fa94e251faa28903aa0655be30cebf9512019bc44f962fbe6ebf275
fault-dram-uncorrectable
  b488f3c3abec24631d8bfdc5e44304a6ffbfcdd7bec68caf47a9d3406b17ad84
distributed
  8db247d34f9041aa1c17662059fdf1f7757a769c8b6b493a96610c05f7eb6ac7
boards
  52d59a86601459a04569afe500532ddefedb95fd53406a10a32cc59fce04213e
partition
  15b72debd8e4549916bcf33e2f09db7e56d7b4c8e1df6ff4faf62ffe9b9508a0
replicate
  5ca632854a415e6ec8c16b017ace442219843a336dc720fab95ef422fd4686aa
fault-link-drop
  dbe07d5290e894beaf567248d98a1f4ef51fc4ef3906d6792a5464f7bc469b10
fault-link-corrupt
  633b5a192c2dde850810c92978b5cc7f5fd17e853790e872f98de210fc9abd38
death
  ca06e0f3a125f23619e0bb559baf0fc69ded092d4845e90e536137c91c6b3b3c
fault-fail-cycles
  75aa5f46b60b2036e683b53969755ae3885477b89cbfb07dadd94951e182ff27
fault-fail-boards
  db43bbf12acf40713d47d6b8819dda0ddeffe8d9eacf0bce443e5f898fe7eecd
fault-checkpoint-interval
  9aee1dff31ac1febea2e936fe265765c1d953997ecc4a8be0e0d068e45ec4e54
no-checkpoints
  ad6a833054e069d4696e3e928bef6dc3e4956e02526a48fdb65f75322578f4d3
fault-allow-walker-loss
  be357cc5bbd9d2f71594d29c9842e1f796bc6acaf5ff6e505a52afb9be73b75f
spare-boards
  8c172695c1b161a6d391518e3c44501811a8874148773c6d5164b963cf195f68
rebuild-bytes-per-cycle
  b42105faf34c67aeca25f8cf8540fa5cbfe2a7f495a7199e1a5c42a445711e35
spare-checkpoints
  d50e104b3eba0dfcb1a11adc943e952376a4b604f175d5b995fd3c6fa48accef
ckpt-store
  595dd5c7f8ae1cb680d187523d0764a1e4c9b701941bb26915c4d57dc96e4dc4
ckpt-generations
  3e55bf753b6aa327252ef9235637abe909d50941fe692ba2f5b86c39a0dee382
ckpt-replicas
  f998a7596dd80fc81f6d063834fc7c31bcc57cf421fc7f9e80a60dd18d7dea73
ckpt-read-latency
  9ec6210c4c9afda8681e359e269b208f1868f97de9260c181458bb6f086e6ba0
ckpt-torn-rate
  1859cf166b5b4d45ff795f91ad5cdf85a2b2d3b34a60c51003b535a8a9939c0c
ckpt-stale-rate
  a031ed6cf086fa5ade129d63061621f9830ad617d8677b922a0f07bfe03a80e8
ckpt-bit-rot
  7ffa43e180fa0e4f3ad4057de58b7286dc1b4d8ca2674684f9fc66e3c0ba9d7b
ckpt-scrub-interval
  911b95684c929f70c51a4ff02b3b6d74e5896f7285b430c0f41fe8d570d3e20b
ckpt-scrub-bytes
  683159f59663c9ed65e364f89fbfce2db80b3779cd322e1e767117bbb907f617
service
  2a9a05f853397f36235aec174b049c834a14dfcd54ae884889fd1f886b4e7cb9
service-rate
  19b002f8914a8dd0eae9d781729a12bdd4057795502e4cc450f1e1f911d80b4f
service-deadline
  10aff4532a05922520acaac0c95af5f6abff80625e89fd283718f3b6f1f194af
service-queue-cap
  5501a84f7c8a00b172846b6cb5168d423b7be5990b13200af14f9733c7aed055
service-retries
  77ac42b7d422395c2221af8286cf075221499fcb7218e2bc8cc539b09f932984
service-degrade
  e210c1a3e1233ef5fbcb8c7e384b54bbfc408a3098c5524224a6e5a3bcaaf934
service-best-effort
  8158a3df159ddd8788f952c0773c43a344323b165b371d154920eb7203cbdd6e
span-mode
  0a8e4e9df16e525e7a4f6153c96e1b81aa9dba27fac56e3912612ada42b95d13
slo-max-shed
  f041026c219e920d5377b03c66743599daf8308de9514362ceed051582153ed9
slo-max-violation
  98df0fba286c58610618aaf09a17d9865fbd74bcca0d8197e3be1e65b6710eff
service-replicated
  760db6eda114324ebec36e7192bfaea609d970359a651d273a58d1abcc5ff7ff
service-shards
  5b43b5268737f82d2d4092f4ded2a21f41468879c507ece3ba8851aad9c7b4be
burst
  a0129a688009bb25f1ed43fc1b5f9e97ba3f6dbc634837083fc944c137ab97d3
service-burst
  d60ac0eee7f1c52446cad06d341a50e1ea9cb842463ae13864c1b48e06757697
service-burst-on
  c69c927f6a5d917a54b24f7cacd291dbd98917b352191490930611c67d2174f0
service-burst-off
  ebeb4d500ae11e577824f69329a8afef2490e225c2594d92f64a0362493cd7a7
chaos
  e0e286b7e9209e633541a701355a37ae0b300d9be1c2c496d9eef44792fc7248
chaos-scenarios
  fa19183fc6e1937af40550876ceca3ad7de204cd3ae7585aa20cc5c88761b8c7
chaos-seed
  7ab80f577725a3cc2f7d424c20383b9eef1a36d2d4469827c02037874b0d6ba3
chaos-spares
  2fa778d752789cdc5b383834f005165498c8ef19962d79e791a15094f1cb28af
EOF
if ! diff -u "$OUT/want" "$OUT/got" >&2; then
  echo "FAIL: a flag pin moved (- recorded, + this run)" >&2
  exit 1
fi
echo "all $(grep -c '^[^ ]' "$OUT/got") flag pins match"
