package repro.perfbench

import repro.experiments.Experiments
import repro.sim._
import repro.sse.SSEWorkload
import repro.workload.MicroBenchWorkload

/** One simulation run of a pass: a label, its configuration and a factory
  * for a fresh workload (workloads are stateful, so every run builds one).
  */
final case class SimOp(label: String, config: SimConfig, workload: () => Workload)

/** A benchmark workload: the simulation runs that make up one pass, in
  * order, and the checks that relate their results to each other.
  */
sealed trait Scenario {
  def name: String
  def ops(seed: Long): IndexedSeq[SimOp]
  /** Violations of the paper-shape properties across one pass's results
    * (same order as `ops`); empty when they hold.
    */
  def passChecks(ops: IndexedSeq[SimOp], results: IndexedSeq[SimResult]): Seq[String]
}

/** The workloads. Their configurations mirror `Experiments` (whose SSE
  * builders are private), with the workload seed as an argument:
  * `ScenariosSpec` shows that seeds 2019 (SSE) and 42 (micro-benchmark)
  * reproduce `Experiments.table2` and `fig6Point` exactly.
  */
object Scenarios {

  val all: IndexedSeq[Scenario] = IndexedSeq(Table2, Fig6)

  def byName(name: String): Option[Scenario] = all.find(_.name == name)

  private def sseConfig(nodes: Int, paradigm: Paradigm, durationSec: Double): SimConfig = {
    val (others, overrides) = Experiments.sseExecutors(nodes)
    SimConfig(Experiments.paperCluster(nodes), paradigm,
      executorsPerOp = others,
      shardsPerExecutor = 64,
      executorsPerOpOverride = overrides,
      durationSec = durationSec, warmupSec = 5.0)
  }

  /** SSE orders offered at `loadFactor` × the pipeline's CPU capacity. */
  private def sseWorkload(nodes: Int, loadFactor: Double, seed: Long): () => Workload = {
    val capacity = nodes * 8 / Experiments.ssePipelineCostSec
    () => new SSEWorkload(offeredRate = capacity * loadFactor, spoutExecutors = 32, seed = seed)
  }

  /** Table 2 pair at 32 nodes and 0.6 load: naive-EC, then Elasticutor. */
  object Table2 extends Scenario {
    val name = "sse-table2"
    val nodes = 32
    def ops(seed: Long): IndexedSeq[SimOp] = IndexedSeq(
      SimOp("naive-EC", sseConfig(nodes, Paradigm.ExecutorCentric(naive = true), 40.0),
        sseWorkload(nodes, 0.6, seed)),
      SimOp("Elasticutor", sseConfig(nodes, Paradigm.ExecutorCentric(), 40.0),
        sseWorkload(nodes, 0.6, seed)))
    def passChecks(ops: IndexedSeq[SimOp], results: IndexedSeq[SimResult]): Seq[String] =
      Checks.table2Order(results(0), results(1))
  }

  /** Fig. 6 points: static, RC and Elasticutor at ω = 0 and ω = 16 on the
    * 8-node micro-benchmark at 72% of the calculator's CPU capacity.
    */
  object Fig6 extends Scenario {
    val name = "micro-fig6"
    val nodes = 8
    val omegas: IndexedSeq[Double] = IndexedSeq(0.0, 16.0)
    val calculatorCostSec = 1e-3
    val utilisation = 0.72

    def offeredRate: Double = nodes * 8 / calculatorCostSec * utilisation

    def ops(seed: Long): IndexedSeq[SimOp] = {
      val cluster = Experiments.paperCluster(nodes)
      for (approach <- Experiments.fig6Approaches.toIndexedSeq; omega <- omegas) yield {
        val paradigm = approach match {
          case "static" => Paradigm.Static
          case "RC" => Paradigm.ResourceCentric()
          case _ => Paradigm.ExecutorCentric()
        }
        val cfg = SimConfig(cluster, paradigm,
          executorsPerOp = nodes, shardsPerExecutor = 8192 / nodes,
          executorsPerOpOverride = Map("sink" -> 2),
          durationSec = 45.0, warmupSec = 5.0)
        SimOp(f"$approach@$omega%.0f", cfg, () => new MicroBenchWorkload(offeredRate, omega,
          cpuSecPerTuple = calculatorCostSec, zipfSkew = 0.65, seed = seed))
      }
    }

    def passChecks(ops: IndexedSeq[SimOp], results: IndexedSeq[SimResult]): Seq[String] = {
      val byLabel = ops.map(_.label).zip(results).toMap
      Checks.fig6Shape(byLabel, offeredRate, calculatorCostSec)
    }
  }
}
