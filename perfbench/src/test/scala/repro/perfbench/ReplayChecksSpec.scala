package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CpuAssignment, LoadBalancer, QueueingModel}
import repro.core.CpuAssignment.{Assignment, ExecutorInfo}
import repro.core.QueueingModel.ExecutorLoad

/** The replay's property checks accept what `core` computes and reject
  * hand-made wrong allocations, assignments and balances.
  */
class ReplayChecksSpec extends AnyFunSuite {

  private val loads = IndexedSeq(ExecutorLoad(1500.0, 1000.0), ExecutorLoad(300.0, 1000.0),
    ExecutorLoad(4200.0, 1000.0))

  test("Erlang-C through the Erlang-B recursion agrees with the scheduler's formula") {
    for (k <- Seq(1, 2, 5, 16, 64); a <- Seq(0.3, 0.9, 0.99).map(_ * k))
      assert(math.abs(ReplayChecks.erlangC(k, a) - QueueingModel.erlangC(k, a)) < 1e-9, (k, a))
  }

  test("allocation check accepts the scheduler's allocation") {
    for (cores <- Seq(8, 12, 64)) {
      val alloc = QueueingModel.allocateCores(loads, 0.0015, cores)
      assert(ReplayChecks.allocation("ok", loads, alloc, 0.0015, cores).isEmpty, cores)
    }
  }

  test("allocation check rejects a core count below the stable minimum") {
    val alloc = QueueingModel.Allocation(IndexedSeq(2, 1, 4), 0.0, feasible = true)
    assert(ReplayChecks.allocation("bad", loads, alloc, 1.0, 64).nonEmpty)
  }

  test("allocation check rejects a missed target while cores are left") {
    val alloc = QueueingModel.Allocation(IndexedSeq(2, 1, 5), 0.0, feasible = true)
    assert(ReplayChecks.allocation("bad", loads, alloc, 0.0011, 64).nonEmpty)
    assert(ReplayChecks.allocation("all cores used", loads, alloc, 0.0011, 8).isEmpty)
  }

  test("clipToCapacity keeps one core each and fills the cluster exactly") {
    val clipped = ReplayChecks.clipToCapacity(IndexedSeq(10, 1, 30, 7), 20)
    assert(clipped.sum == 20 && clipped.forall(_ >= 1))
    // The one-core floor overshoots here; the largest share gives it back.
    assert(ReplayChecks.clipToCapacity(IndexedSeq(1, 1, 1, 1, 1, 13), 8) == IndexedSeq(1, 1, 1, 1, 1, 3))
    assert(ReplayChecks.clipToCapacity(IndexedSeq(3, 4), 20) == IndexedSeq(3, 4))
  }

  private val capacity = IndexedSeq(4, 4)
  private val infos = IndexedSeq(ExecutorInfo(0, 1e6, 1e9), ExecutorInfo(1, 1e6, 0.0), ExecutorInfo(1, 1e6, 0.0))
  private val prev = Assignment.oneCoreLocal(infos, 2, 4)

  test("assignment check accepts Algorithm 1's and the naive assignment") {
    val target = IndexedSeq(4, 2, 2)
    val (a, phi) = CpuAssignment.assign(target, prev, capacity, infos)
    assert(ReplayChecks.assignment("ok", a.get, target, capacity).isEmpty)
    assert(ReplayChecks.offLocal(a.get, infos, phi).isEmpty)
    val naive = CpuAssignment.assignNaive(target, prev, capacity, infos).get
    assert(ReplayChecks.assignment("ok", naive, target, capacity).isEmpty)
  }

  test("assignment check rejects over-capacity nodes, wrong sums and lost locality") {
    val target = IndexedSeq(4, 2, 2)
    def a(rows: IndexedSeq[Int]*) = Assignment(rows.toIndexedSeq)
    val overNode = a(IndexedSeq(4, 1, 0), IndexedSeq(0, 1, 2))
    val wrongSum = a(IndexedSeq(3, 1, 0), IndexedSeq(0, 1, 2))
    val remote = a(IndexedSeq(3, 1, 0), IndexedSeq(1, 1, 2))
    assert(ReplayChecks.assignment("bad", overNode, target, capacity).nonEmpty)
    assert(ReplayChecks.assignment("bad", wrongSum, target, capacity).nonEmpty)
    assert(ReplayChecks.assignment("ok", remote, target, capacity).isEmpty)
    assert(ReplayChecks.offLocal(remote, infos, 1e6) == Seq(0))
    assert(ReplayChecks.offLocal(remote, infos, 1e10).isEmpty)
  }

  private val shardLoads = IndexedSeq(5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

  test("balance check accepts the balancer's result") {
    val reb = LoadBalancer.rebalance(shardLoads, IndexedSeq.fill(8)(0), 3, 1.2)
    assert(ReplayChecks.balance("ok", shardLoads, reb, 3, 1.2).isEmpty)
  }

  test("balance check rejects a wrong imbalance and a stop with an improving move left") {
    val a = IndexedSeq(0, 1, 1, 1, 1, 1, 1, 2)
    val delta = 6.0 / (12.0 / 3)
    assert(ReplayChecks.balance("bad", shardLoads, LoadBalancer.Rebalance(a, Nil, delta * 0.9), 3, 1.2).nonEmpty)
    // δ = 1.5 > θ, and moving one unit shard from task 1 to task 2 lowers the peak.
    assert(ReplayChecks.balance("bad", shardLoads, LoadBalancer.Rebalance(a, Nil, delta), 3, 1.2).nonEmpty)
    // A single hot shard: δ > θ, but no move lowers the peak.
    val hot = IndexedSeq(10.0, 1.0, 1.0)
    assert(ReplayChecks.balance("ok", hot, LoadBalancer.Rebalance(IndexedSeq(0, 1, 1), Nil, 10.0 / 6), 2, 1.2).isEmpty)
  }
}
