"""X server edge cases: disconnects mid-protocol, stale references, focus."""

import pytest

from repro.sim.scheduler import EventScheduler
from repro.xserver.errors import BadDrawable, BadWindow
from repro.xserver.events import EventKind
from repro.xserver.selection import TransferState
from repro.xserver.server import XServer
from repro.xserver.window import Geometry


class FakeTask:
    def __init__(self, pid, comm="app"):
        self.pid = pid
        self.comm = comm


@pytest.fixture
def server():
    return XServer(EventScheduler())


def client_with_window(server, pid, comm="app"):
    client = server.connect(FakeTask(pid, comm))
    window = server.create_window(client, Geometry(0, 0, 100, 100))
    server.map_window(client, window.drawable_id)
    return client, window


class TestDisconnectCleanup:
    def test_selection_cleared_on_owner_disconnect(self, server):
        owner, window = client_with_window(server, 1)
        server.set_selection_owner(owner, "CLIPBOARD", window.drawable_id)
        server.disconnect(owner)
        other, _ = client_with_window(server, 2)
        assert server.get_selection_owner(other, "CLIPBOARD") is None

    def test_disconnect_removes_windows_from_stacking(self, server):
        client, window = client_with_window(server, 1)
        server.disconnect(client)
        assert server.stacking.topmost_at(50, 50) is None

    def test_input_to_disconnected_client_dropped(self, server):
        from repro.xserver.input_drivers import HardwareMouse

        mouse = HardwareMouse(server)
        client, window = client_with_window(server, 1)
        server.disconnect(client)
        dropped_before = server.input_events_dropped
        mouse.click(50, 50)
        assert server.input_events_dropped > dropped_before

    def test_requestor_disconnect_leaves_transfer_inert(self, server):
        owner, owner_window = client_with_window(server, 1)
        requestor, req_window = client_with_window(server, 2)
        server.set_selection_owner(owner, "CLIPBOARD", owner_window.drawable_id)
        transfer = server.convert_selection(
            requestor, "CLIPBOARD", "STRING", "P", req_window.drawable_id
        )
        server.disconnect(requestor)
        # The owner's property write now targets a dead window id.
        with pytest.raises(BadWindow):
            server.change_property(owner, req_window.drawable_id, "P", b"late")
        # The disconnect failed the transfer: nothing can ever complete it.
        assert transfer.state is TransferState.FAILED
        assert server.selections.active_transfers() == []
        assert server.selections.failed_transfers == 1


class TestStaleReferences:
    def test_unknown_drawable(self, server):
        client, _ = client_with_window(server, 1)
        with pytest.raises(BadDrawable):
            server.get_image(client, 0xDEADBEEF)

    def test_send_event_to_unknown_window(self, server):
        client, _ = client_with_window(server, 1)
        with pytest.raises(BadWindow):
            server.send_event(client, 0xDEAD, EventKind.CLIENT_MESSAGE)

    def test_focus_requires_existing_window(self, server):
        client, _ = client_with_window(server, 1)
        with pytest.raises(BadWindow):
            server.set_input_focus(client, 0xDEAD)


class TestFocusBehaviour:
    def test_key_events_to_unmapped_focus_window_still_deliver(self, server):
        """X delivers key events to the focus window even if unmapped;
        the Overhaul *notification* check is where unmapped windows are
        rejected, not routing."""
        from repro.xserver.input_drivers import HardwareKeyboard

        keyboard = HardwareKeyboard(server)
        client, window = client_with_window(server, 1)
        server.set_input_focus(client, window.drawable_id)
        server.unmap_window(client, window.drawable_id)
        keyboard.press(42)
        assert client.events_received >= 2

    def test_focus_follows_latest_setter(self, server):
        from repro.xserver.input_drivers import HardwareKeyboard

        keyboard = HardwareKeyboard(server)
        a_client, a_window = client_with_window(server, 1)
        b_client, b_window = client_with_window(server, 2)
        server.set_input_focus(a_client, a_window.drawable_id)
        server.set_input_focus(b_client, b_window.drawable_id)
        keyboard.press(42)
        assert b_client.events_received >= 2
        assert a_client.events_received == 0


class TestClientMessage:
    def test_client_message_delivery(self, server):
        a_client, _ = client_with_window(server, 1)
        b_client, b_window = client_with_window(server, 2)
        server.send_event(
            a_client, b_window.drawable_id, EventKind.CLIENT_MESSAGE,
            payload={"cmd": "ping"},
        )
        event = b_client.event_queue[-1]
        assert event.kind is EventKind.CLIENT_MESSAGE
        assert event.payload["cmd"] == "ping"
        assert event.synthetic_flag  # SendEvent marks everything synthetic
