package repro.perfbench

import repro.sim.{OperatorSpec, Workload}

/** Workload decorator for the traced run: times and counts the engine's
  * calls into the key-distribution layer (`advanceTo`, `shardWeights`,
  * `externalRate`) and the bytes they allocate on the calling thread.
  * It returns exactly what the wrapped workload returns.
  */
final class TracingWorkload(inner: Workload) extends Workload {
  var advanceCalls = 0L
  var advanceNanos = 0L
  var distributionChanges = 0L
  var shardWeightsCalls = 0L
  var shardWeightsNanos = 0L
  var externalRateCalls = 0L
  var externalRateNanos = 0L
  var allocatedBytes = 0L

  def callbackNanos: Long = advanceNanos + shardWeightsNanos + externalRateNanos

  override def operators: IndexedSeq[OperatorSpec] = inner.operators
  override def throughputOp: String = inner.throughputOp
  override def upstreamExecutorCount: Int = inner.upstreamExecutorCount

  override def externalRate(op: String, timeSec: Double): Double = {
    val a0 = Alloc.bytes()
    val t0 = System.nanoTime()
    val r = inner.externalRate(op, timeSec)
    externalRateNanos += System.nanoTime() - t0
    allocatedBytes += Alloc.bytes() - a0
    externalRateCalls += 1
    r
  }

  override def advanceTo(timeSec: Double): Boolean = {
    val a0 = Alloc.bytes()
    val t0 = System.nanoTime()
    val changed = inner.advanceTo(timeSec)
    advanceNanos += System.nanoTime() - t0
    allocatedBytes += Alloc.bytes() - a0
    advanceCalls += 1
    if (changed) distributionChanges += 1
    changed
  }

  override def shardWeights(op: String, numExecutors: Int, shardsPerExecutor: Int): Array[Double] = {
    val a0 = Alloc.bytes()
    val t0 = System.nanoTime()
    val w = inner.shardWeights(op, numExecutors, shardsPerExecutor)
    shardWeightsNanos += System.nanoTime() - t0
    allocatedBytes += Alloc.bytes() - a0
    shardWeightsCalls += 1
    w
  }
}

/** Bytes allocated so far by the calling thread. */
object Alloc {
  private val mx = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  def bytes(): Long = mx.getCurrentThreadAllocatedBytes
}
