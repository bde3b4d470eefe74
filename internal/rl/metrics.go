package rl

import "macroplace/internal/obs"

// Pre-training telemetry (DESIGN.md §9). Gauges carry the most recent
// value (last episode / last update); counters accumulate across every
// trainer in the process. Nothing here feeds back into training — the
// loss terms are recomputed from values the update already produced.
var (
	obsEpisodes = obs.NewCounter("macroplace_rl_episodes_total",
		"Training episodes completed (including quarantined ones).")
	obsQuarantined = obs.NewCounter("macroplace_rl_quarantined_episodes_total",
		"Episodes dropped from update batches for non-finite reward/wirelength.")
	obsRestores = obs.NewCounter("macroplace_rl_weight_restores_total",
		"Weight restores after an update poisoned the network.")
	obsUpdates = obs.NewCounter("macroplace_rl_updates_total",
		"Batched Actor-Critic optimizer steps applied.")
	obsReward = obs.NewGauge("macroplace_rl_last_reward",
		"Scaled reward of the most recent training episode.")
	obsWirelength = obs.NewGauge("macroplace_rl_last_wirelength",
		"Oracle wirelength of the most recent training episode.")
	obsPolicyLoss = obs.NewGauge("macroplace_rl_policy_loss",
		"Mean policy-gradient loss of the most recent update batch.")
	obsValueLoss = obs.NewGauge("macroplace_rl_value_loss",
		"Mean squared advantage (critic loss) of the most recent update batch.")
	obsEntropy = obs.NewGauge("macroplace_rl_policy_entropy",
		"Mean policy entropy (nats) over the most recent update batch.")
	obsGradNorm = obs.NewGauge("macroplace_rl_grad_norm",
		"L2 norm of the averaged gradient at the most recent optimizer step.")
	obsUpdateSeconds = obs.NewHistogram("macroplace_rl_update_seconds",
		"Wall time of one batched Actor-Critic update, observed once per optimizer step: the batch's replay rounds, the fold and the optimizer step.",
		[]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 60})
)
